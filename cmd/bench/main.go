// Command bench regenerates the paper's tables and figures.
//
// Usage:
//
//	bench -exp all                 # run every experiment at default scale
//	bench -exp fig8 -scale 0.25    # one experiment on smaller data
//	bench -list                    # list experiment ids
//
// The full-scale table/figure numbers are recorded in EXPERIMENTS.md.
// Performance is measured by the statement-level harness in benchmark/
// (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bismarck/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id to run, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = repo defaults)")
		workers = flag.Int("workers", 8, "max threads for the parallel experiments")
		budget  = flag.Duration("budget", 15*time.Second, "per-tool budget for the Table 4 grid")
		seed    = flag.Int64("seed", 42, "random seed for data generation and training")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Workers: *workers, Budget: *budget, Seed: *seed}
	run := func(e experiments.Experiment) {
		start := time.Now()
		fmt.Printf("\n### %s — %s\n", e.ID, e.Desc)
		if err := e.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %s)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
