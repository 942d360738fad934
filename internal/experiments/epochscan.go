package experiments

import (
	"fmt"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/parallel"
	"bismarck/internal/tasks"
)

// EpochScanCase is one variant of the epoch-scan microbenchmark family: a
// full pass of gradient steps over a fixed dataset through one of the
// three decode paths of the epoch pipeline —
//
//	decode  per-row Table.Scan, a fresh Tuple and vector per row
//	        (the seed engine's only path: what every epoch used to cost)
//	reuse   reusable-scratch decode (ScanReuse): page bytes every epoch,
//	        ~zero allocations (the physical-reorder path)
//	cached  the materialized columnar cache: no page bytes, no decode,
//	        no allocations (the steady-state trainer path)
//
// with 1 worker (sequential DenseModel) or 4 workers (shared-memory NoLock
// segment scans). bench_test.go runs them as BenchmarkEpochScan sub-
// benchmarks; cmd/bench runs the same cases to emit machine-readable
// perf-trajectory numbers.
type EpochScanCase struct {
	Name string // e.g. "dense-lr/cached/1w"
	Rows int    // rows visited per Run, for rows/sec reporting
	Run  func() error
}

// EpochScanCases builds the family over a dense LR workload (Forest-like,
// d=54) and a sparse SVM workload (DBLife-like, d=41000).
func EpochScanCases(denseRows, sparseRows int, seed int64) ([]EpochScanCase, error) {
	type workload struct {
		name string
		tbl  *engine.Table
		task core.Task
		dim  int
		rows int
	}
	denseTbl := data.Forest(denseRows, seed)
	sparseTbl := data.DBLife(sparseRows, 41000, 12, seed+1)
	wls := []workload{
		{name: "dense-lr", tbl: denseTbl, task: tasks.NewLR(54), dim: 54, rows: denseRows},
		{name: "sparse-svm", tbl: sparseTbl, task: tasks.NewSVM(41000), dim: 41000, rows: sparseRows},
	}

	const alpha = 0.01
	var cases []EpochScanCase
	for _, wl := range wls {
		wl := wl
		if err := wl.tbl.Flush(); err != nil {
			return nil, err
		}
		mat, err := wl.tbl.Materialize()
		if err != nil {
			return nil, err
		}

		// Sequential variants share one dense model; its drift across
		// passes is irrelevant to the scan cost being measured.
		dm := core.NewDenseModel(wl.dim)
		seqStep := func(tp engine.Tuple) error {
			wl.task.Step(dm, tp, alpha)
			return nil
		}
		// Parallel variants update a NoLock (Hogwild) atomic model.
		am := parallel.NewAtomicModel(wl.dim, false)
		parStep := func(_ int, tp engine.Tuple) error {
			wl.task.Step(am, tp, alpha)
			return nil
		}

		tbl, reuse := wl.tbl, wl.tbl.Reuse()
		cases = append(cases,
			EpochScanCase{Name: wl.name + "/decode/1w", Rows: wl.rows,
				Run: func() error { return tbl.Scan(seqStep) }},
			EpochScanCase{Name: wl.name + "/reuse/1w", Rows: wl.rows,
				Run: func() error { return tbl.ScanReuse(seqStep) }},
			EpochScanCase{Name: wl.name + "/cached/1w", Rows: wl.rows,
				Run: func() error { return mat.Scan(seqStep) }},
			EpochScanCase{Name: wl.name + "/decode/4w", Rows: wl.rows,
				Run: func() error { return engine.RunSharedScan(tbl, 4, engine.Profile{}, parStep) }},
			EpochScanCase{Name: wl.name + "/reuse/4w", Rows: wl.rows,
				Run: func() error { return engine.RunSharedScan(reuse, 4, engine.Profile{}, parStep) }},
			EpochScanCase{Name: wl.name + "/cached/4w", Rows: wl.rows,
				Run: func() error { return engine.RunSharedScan(mat, 4, engine.Profile{}, parStep) }},
		)
	}
	return cases, nil
}

// EpochScanDefaults are the row counts the root benchmarks and allocation
// gates use, sized so one pass is milliseconds.
const (
	EpochScanDenseRows  = 20000
	EpochScanSparseRows = 8000
)

// FindEpochScanCase returns the named case from a built family.
func FindEpochScanCase(cases []EpochScanCase, name string) (EpochScanCase, error) {
	for _, c := range cases {
		if c.Name == name {
			return c, nil
		}
	}
	return EpochScanCase{}, fmt.Errorf("experiments: no epoch-scan case %q", name)
}
