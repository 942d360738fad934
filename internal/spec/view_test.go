package spec

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

var viewSchema = engine.Schema{
	{Name: "id", Type: engine.TInt64},
	{Name: "vec", Type: engine.TDenseVec},
	{Name: "label", Type: engine.TFloat64},
}

// viewSource builds an (k, features, y) table: no id column (synthesized),
// an int64 label (cast), and a vector under another name (bound by type).
func viewSource(t *testing.T, n, dim int) *engine.Table {
	t.Helper()
	src := engine.NewMemTable("src", engine.Schema{
		{Name: "k", Type: engine.TString},
		{Name: "features", Type: engine.TDenseVec},
		{Name: "label", Type: engine.TInt64},
	})
	for i := 0; i < n; i++ {
		v := make(vector.Dense, dim)
		for j := range v {
			v[j] = float64(i) + float64(j)/8
		}
		src.MustInsert(engine.Tuple{engine.Str("r"), engine.DenseV(v), engine.I64(int64(i % 3))})
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	return src
}

func viewRecords(t *testing.T, scan func(func(engine.Tuple) error) error) [][]byte {
	t.Helper()
	var out [][]byte
	if err := scan(func(tp engine.Tuple) error { out = append(out, tp.Encode()); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSlabViewProjection: a projected view is the slabs alone — one copy of
// the data, no page heap, nothing per row — and it holds exactly the source
// rows projected by hand (row number, vector, label cast to float), for
// plain, filtered and label-less projections; a physical operation on it
// still finds every row.
func TestSlabViewProjection(t *testing.T) {
	const n, dim = 4000, 32
	src := viewSource(t, n, dim)
	for _, c := range []struct {
		name, stmt string
		opt        ViewOptions
		minLabel   int64 // the WHERE clause, by hand
		rows       int
	}{
		{"plain", `SELECT * FROM src TO TRAIN lr LABEL label INTO m;`, ViewOptions{}, 0, n},
		{"where", `SELECT * FROM src WHERE label >= 1 TO TRAIN lr LABEL label INTO m;`, ViewOptions{}, 1, n - (n+2)/3},
		{"unlabeled", `SELECT features FROM src TO PREDICT USING m;`, ViewOptions{OptionalLabel: true}, 0, n},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := Parse(c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			view, err := ProjectView(src, st, viewSchema, c.opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if view.Table.NumRows() != c.rows || view.Table.CachedRows() == nil {
				t.Fatalf("view has %d rows (want %d), fresh cache: %v", view.Table.NumRows(), c.rows, view.Table.CachedRows() != nil)
			}
			if view.HasLabel == c.opt.OptionalLabel {
				t.Fatalf("HasLabel = %v", view.HasLabel)
			}
			// Slabs only: nothing per row, and — when the row count is known
			// up front (no WHERE) — one allocation of the cells kept (dim+2
			// words a row, plus an offset), never a page heap on top.
			if m := after.Mallocs - before.Mallocs; m > 200 {
				t.Errorf("projection made %d allocations for %d rows", m, c.rows)
			}
			payload := uint64(c.rows * (8*(dim+2) + 4))
			if got := after.TotalAlloc - before.TotalAlloc; len(st.Where) == 0 && got > payload*11/10+8192 {
				t.Errorf("projection allocated %d bytes for %d bytes of cells", got, payload)
			}

			var want [][]byte
			if err := src.Scan(func(tp engine.Tuple) error {
				if tp[2].Int < c.minLabel {
					return nil
				}
				label := float64(tp[2].Int)
				if c.opt.OptionalLabel {
					label = 0
				}
				want = append(want, engine.Tuple{engine.I64(int64(len(want))), tp[1], engine.F64(label)}.Encode())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			same := func(what string, got [][]byte) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s: row %d differs from the hand projection", what, i)
					}
				}
			}
			same("cached rows", viewRecords(t, view.Table.Rows().Scan))
			same("page scan", viewRecords(t, view.Table.Scan))
			if err := view.Table.Shuffle(rand.New(rand.NewSource(2))); err != nil {
				t.Fatal(err)
			}
			if got := viewRecords(t, view.Table.Scan); len(got) != c.rows {
				t.Fatalf("physical shuffle left %d rows, want %d", len(got), c.rows)
			}
		})
	}
}
