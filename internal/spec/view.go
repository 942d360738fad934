package spec

import (
	"fmt"
	"strings"

	"bismarck/internal/engine"
)

// ViewOptions tunes the projection.
type ViewOptions struct {
	// OptionalLabel lets the last schema column be absent from the source
	// (PREDICT over unlabeled data); missing labels are zero-filled and
	// HasLabel reports false.
	OptionalLabel bool
	// Degraded scans the source skipping quarantined pages instead of
	// failing on the first corrupt one (WITH degraded=true); the skipped
	// page/row counts land in View.Skipped so the statement result can
	// report them. Off by default: silent data loss must be opted into.
	Degraded bool
}

// View is a source table projected into a task's canonical layout.
type View struct {
	Table *engine.Table
	// HasLabel reports whether the last column holds real source data (as
	// opposed to the zero fill of OptionalLabel projections).
	HasLabel bool
	// Skipped counts what a Degraded projection stepped over (zero for
	// strict projections or clean sources). SkippedRows is a lower bound —
	// a page whose record count was never readable counts its rows as 0.
	Skipped engine.DegradedStats
}

// ProjectView materializes the statement's select/where/column/label
// clauses over the source table as a private in-memory view in the task's
// canonical layout:
//
//   - the WHERE predicates filter rows;
//   - a leading int64 "id"/"t" column is synthesized as the row number
//     when the source has no column of that name;
//   - the LABEL clause binds the last schema column; the COLUMN clause
//     binds the remaining data columns in order; unbound columns resolve
//     by name, then by unique compatible type;
//   - vector-typed columns adapt to the source's dense/sparse flavor, and
//     int64 sources are cast into float64 targets.
//
// Training then shuffles the view, never the user's table.
func ProjectView(src *engine.Table, st *Statement, schema engine.Schema, opt ViewOptions) (*View, error) {
	selected, err := selectedColumns(src, st.Select)
	if err != nil {
		return nil, err
	}
	filter, err := compileWhere(src, st.Where)
	if err != nil {
		return nil, err
	}

	n := len(schema)
	srcIdx := make([]int, n) // source column per target, -1 = synthesize/zero-fill
	for i := range srcIdx {
		srcIdx[i] = -2 // unresolved
	}

	// A leading (id|t) int64 column is synthesizable.
	synthesizable := schema[0].Type == engine.TInt64 &&
		(schema[0].Name == "id" || schema[0].Name == "t")

	// LABEL binds the last column.
	labelIdx := n - 1
	if st.Label != "" {
		ci, err := findSelected(src, selected, st.Label)
		if err != nil {
			return nil, err
		}
		if !typeCompatible(schema[labelIdx].Type, src.Schema[ci].Type) {
			return nil, fmt.Errorf("spec: label column %q has type %s, task wants %s",
				st.Label, src.Schema[ci].Type, schema[labelIdx].Type)
		}
		srcIdx[labelIdx] = ci
	}

	// COLUMN binds the remaining data columns in order.
	mappable := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i == 0 && synthesizable {
			continue
		}
		if i == labelIdx && srcIdx[labelIdx] != -2 {
			continue
		}
		mappable = append(mappable, i)
	}
	if len(st.Columns) > len(mappable) {
		return nil, fmt.Errorf("spec: COLUMN lists %d columns, task layout has room for %d",
			len(st.Columns), len(mappable))
	}
	for k, name := range st.Columns {
		ti := mappable[k]
		ci, err := findSelected(src, selected, name)
		if err != nil {
			return nil, err
		}
		if !typeCompatible(schema[ti].Type, src.Schema[ci].Type) {
			return nil, fmt.Errorf("spec: column %q has type %s, task column %q wants %s",
				name, src.Schema[ci].Type, schema[ti].Name, schema[ti].Type)
		}
		srcIdx[ti] = ci
	}

	// Default resolution for whatever is still unresolved. An optional
	// label only binds by exact name — silently adopting some other float
	// column would fabricate accuracy numbers against non-label data.
	for ti := 0; ti < n; ti++ {
		if srcIdx[ti] != -2 {
			continue
		}
		var ci int
		if ti == labelIdx && opt.OptionalLabel {
			ci = resolveByName(src, selected, srcIdx[:], schema[ti])
		} else {
			ci = resolveDefault(src, selected, srcIdx[:], schema[ti])
		}
		switch {
		case ci >= 0:
			srcIdx[ti] = ci
		case ti == 0 && synthesizable:
			srcIdx[ti] = -1 // row number
		case ti == labelIdx && opt.OptionalLabel:
			srcIdx[ti] = -1 // zero fill
		default:
			return nil, fmt.Errorf("spec: cannot resolve task column %q (%s) in table %s — name it with %s",
				schema[ti].Name, schema[ti].Type, src.Name, clauseFor(ti == labelIdx))
		}
	}

	// Output schema: canonical names, source-adapted vector types.
	out := make(engine.Schema, n)
	for i, c := range schema {
		out[i] = c
		if srcIdx[i] >= 0 && isVec(c.Type) && isVec(src.Schema[srcIdx[i]].Type) {
			out[i].Type = src.Schema[srcIdx[i]].Type
		}
	}

	// The projection decodes the source through reusable scratch on every
	// worker and copies each kept row once, into columnar slabs sized up
	// front from the source's row count; those slabs are the whole view
	// (engine.Table.Project). A synthesized row number is the row's place
	// in the output, which the build knows only once the rows before it
	// are counted, so it writes that column itself.
	proj := engine.Projection{Schema: out, Rows: src.NumRows(), Degraded: opt.Degraded,
		RowNumber: synthesizable && srcIdx[0] == -1,
		Map: func(tp, row engine.Tuple) (bool, error) {
			if ok, err := filter(tp); err != nil || !ok {
				return false, err
			}
			for i := range row {
				switch {
				case srcIdx[i] >= 0:
					row[i] = castValue(tp[srcIdx[i]], out[i].Type)
				case i == 0:
					row[i] = engine.I64(0) // the build numbers the row
				default:
					row[i] = engine.F64(0)
				}
			}
			return true, nil
		}}
	if len(st.Where) > 0 {
		proj.Rows = 0 // selectivity unknown: let the slabs grow
	}
	view, skipped, err := src.Project(src.Name+"_view", proj)
	if err != nil {
		return nil, err
	}
	return &View{Table: view, HasLabel: srcIdx[labelIdx] >= 0, Skipped: skipped}, nil
}

func clauseFor(label bool) string {
	if label {
		return "LABEL"
	}
	return "COLUMN"
}

func isVec(t engine.Type) bool {
	return t == engine.TDenseVec || t == engine.TSparseVec
}

// typeCompatible reports whether a source column can feed a target type.
func typeCompatible(target, src engine.Type) bool {
	if target == src {
		return true
	}
	if isVec(target) && isVec(src) {
		return true
	}
	// Integer labels/ratings are fine where floats are expected.
	if target == engine.TFloat64 && src == engine.TInt64 {
		return true
	}
	return false
}

func castValue(v engine.Value, target engine.Type) engine.Value {
	if target == engine.TFloat64 && v.Type == engine.TInt64 {
		return engine.F64(float64(v.Int))
	}
	return v
}

// selectedColumns resolves the SELECT list into a source-column index set
// (nil = all).
func selectedColumns(src *engine.Table, sel []string) (map[int]bool, error) {
	if len(sel) == 0 || len(sel) == 1 && sel[0] == "*" {
		return nil, nil
	}
	out := make(map[int]bool, len(sel))
	for _, name := range sel {
		ci := src.Schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("spec: table %s has no column %q", src.Name, name)
		}
		out[ci] = true
	}
	return out, nil
}

func inSelected(selected map[int]bool, ci int) bool {
	return selected == nil || selected[ci]
}

// findSelected resolves a column name, requiring it to be in the SELECT
// list when one was given.
func findSelected(src *engine.Table, selected map[int]bool, name string) (int, error) {
	ci := src.Schema.ColIndex(name)
	if ci < 0 {
		return 0, fmt.Errorf("spec: table %s has no column %q", src.Name, name)
	}
	if !inSelected(selected, ci) {
		return 0, fmt.Errorf("spec: column %q is not in the SELECT list", name)
	}
	return ci, nil
}

func columnInUse(used []int, ci int) bool {
	for _, u := range used {
		if u == ci {
			return true
		}
	}
	return false
}

// resolveByName finds an unbound target's source column by exact name
// match only.
func resolveByName(src *engine.Table, selected map[int]bool, used []int, target engine.Column) int {
	if ci := src.Schema.ColIndex(target.Name); ci >= 0 &&
		inSelected(selected, ci) && !columnInUse(used, ci) && typeCompatible(target.Type, src.Schema[ci].Type) {
		return ci
	}
	return -1
}

// resolveDefault finds the source column for an unbound target: same name
// first, then a unique type-compatible candidate not already used.
func resolveDefault(src *engine.Table, selected map[int]bool, used []int, target engine.Column) int {
	if ci := resolveByName(src, selected, used, target); ci >= 0 {
		return ci
	}
	cand := -1
	for ci, c := range src.Schema {
		if !inSelected(selected, ci) || columnInUse(used, ci) || !typeCompatible(target.Type, c.Type) {
			continue
		}
		if cand >= 0 {
			return -1 // ambiguous
		}
		cand = ci
	}
	return cand
}

// compileWhere builds the row filter of the ANDed predicates.
func compileWhere(src *engine.Table, preds []Predicate) (func(engine.Tuple) (bool, error), error) {
	if len(preds) == 0 {
		return func(engine.Tuple) (bool, error) { return true, nil }, nil
	}
	type cmp struct {
		col int
		op  string
		val Literal
	}
	cmps := make([]cmp, len(preds))
	for i, p := range preds {
		ci := src.Schema.ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("spec: WHERE references unknown column %q", p.Col)
		}
		switch src.Schema[ci].Type {
		case engine.TInt64, engine.TFloat64:
			if p.Val.Kind != LitNumber {
				return nil, fmt.Errorf("spec: WHERE %s %s %s compares a numeric column to %s",
					p.Col, p.Op, p.Val, p.Val)
			}
		case engine.TString:
			if _, ok := p.Val.Text(); !ok || p.Op != "=" && p.Op != "!=" {
				return nil, fmt.Errorf("spec: string column %q supports only = / != against a string", p.Col)
			}
		default:
			return nil, fmt.Errorf("spec: WHERE cannot compare column %q of type %s",
				p.Col, src.Schema[ci].Type)
		}
		cmps[i] = cmp{col: ci, op: p.Op, val: p.Val}
	}
	return func(tp engine.Tuple) (bool, error) {
		for _, c := range cmps {
			v := tp[c.col]
			var ok bool
			if v.Type == engine.TString {
				want, _ := c.val.Text()
				eq := v.Str == want
				ok = c.op == "=" && eq || c.op == "!=" && !eq
			} else {
				x := v.Float
				if v.Type == engine.TInt64 {
					x = float64(v.Int)
				}
				y := c.val.Num
				switch c.op {
				case "=":
					ok = x == y
				case "!=":
					ok = x != y
				case "<":
					ok = x < y
				case "<=":
					ok = x <= y
				case ">":
					ok = x > y
				case ">=":
					ok = x >= y
				}
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}, nil
}

// DescribeParams renders a spec's parameter list for SHOW TASKS.
func DescribeParams(specs []ParamSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		p := s.Key
		if s.Kind == PEnum {
			p += "=" + strings.Join(s.Enum, "|")
		} else if s.Default != nil {
			p += "=" + s.Default.String()
		}
		parts[i] = p
	}
	return strings.Join(parts, ", ")
}
