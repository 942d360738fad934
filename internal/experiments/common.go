// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the Go substrate: each Run* function builds the
// workload, runs Bismarck and the relevant baselines, and prints the same
// rows/series the paper reports. DESIGN.md carries the experiment index;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config controls experiment sizing so the same code serves quick test runs
// and full benchmark runs.
type Config struct {
	// Scale multiplies the default dataset sizes (1.0 = the repo's default
	// laptop-feasible sizes; the paper's full sizes are larger still).
	Scale float64
	// Workers bounds the thread sweep (Figures 9A/9B); 0 means 8.
	Workers int
	// Budget is the per-tool time budget for the Table 4 scalability grid;
	// 0 means 15 seconds.
	Budget time.Duration
	// Seed drives all data generation and training.
	Seed int64
}

func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 8
	}
	return c.Workers
}

func (c Config) budget() time.Duration {
	if c.Budget <= 0 {
		return 15 * time.Second
	}
	return c.Budget
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends one row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named curve of an objective-vs-x plot.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// PrintSeries renders curves as aligned columns (x then one column per
// series; missing points print as "-").
func PrintSeries(w io.Writer, title, xlabel string, series ...Series) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	// Collect the union of x values.
	xset := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	header := append([]string{xlabel}, names(series)...)
	tbl := &Table{Title: title + " (data)", Header: header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range series {
			row = append(row, lookup(s, x))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	// Print without the duplicate title banner.
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range tbl.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, row := range tbl.Rows {
		line(row)
	}
}

func names(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}

func lookup(s Series, x float64) string {
	for i, sx := range s.X {
		if sx == x {
			return trimFloat(s.Y[i])
		}
	}
	return "-"
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.4g", f)
	return s
}

// Downsample keeps at most n points of a series (always keeping the last).
func Downsample(s Series, n int) Series {
	if len(s.X) <= n || n < 2 {
		return s
	}
	out := Series{Name: s.Name}
	step := float64(len(s.X)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		k := int(float64(i) * step)
		out.X = append(out.X, s.X[k])
		out.Y = append(out.Y, s.Y[k])
	}
	return out
}

// Experiment couples an id with a runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(w io.Writer, cfg Config) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Desc: "Dataset statistics (Table 1)", Run: RunTable1},
		{ID: "fig5", Desc: "1-D CA-TX: random vs clustered ordering (Figure 5)", Run: RunFig5},
		{ID: "table2", Desc: "Pure-UDA overhead vs NULL aggregate (Table 2)", Run: RunTable2},
		{ID: "table3", Desc: "Shared-memory UDA overhead vs NULL aggregate (Table 3)", Run: RunTable3},
		{ID: "fig7a", Desc: "End-to-end runtime vs native tools (Figure 7A)", Run: RunFig7A},
		{ID: "fig7b", Desc: "CRF convergence vs CRF++/Mallet stand-ins (Figure 7B)", Run: RunFig7B},
		{ID: "table4", Desc: "Scalability grid on large datasets (Table 4)", Run: RunTable4},
		{ID: "fig8", Desc: "Data ordering: ShuffleAlways/Once/Clustered (Figure 8)", Run: RunFig8},
		{ID: "fig9a", Desc: "Parallel schemes: objective vs epoch (Figure 9A)", Run: RunFig9A},
		{ID: "fig9b", Desc: "Parallel schemes: speed-up vs threads (Figure 9B)", Run: RunFig9B},
		{ID: "fig10a", Desc: "MRS vs Subsampling vs Clustered (Figure 10A)", Run: RunFig10A},
		{ID: "fig10b", Desc: "MRS buffer-size sensitivity (Figure 10B)", Run: RunFig10B},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
