package main

import (
	"fmt"
	"math"
)

// selfcheck is the repeatability test: the same code, every workload run
// twice with the passes interleaved (A B C D A B C D) so drift between the
// passes is what a later before/after comparison would also see. Each
// workload/metric pair's two values must sit within the metric's bound.
// The user-visible figures an end-to-end run measures without a bound are
// printed the same way, for the record, and never breach.
func selfcheck(o options) error {
	o.seconds = float64(o.file.RunSeconds)
	o.trace = false
	var passes [2]map[string]map[string]metricValue
	for pass := range passes {
		passes[pass] = map[string]map[string]metricValue{}
		for _, w := range workloads {
			rep, res, err := runOne(o, w)
			if err != nil {
				return fmt.Errorf("pass %d, %s: %w", pass+1, w.Name, err)
			}
			passes[pass][w.Name] = rep.Metrics
			fmt.Printf("pass %d %s done in %.1f s (%d operations, %d failed)\n", pass+1, w.Name, rep.WallS, res.Attempted, res.Failed)
		}
	}
	gated := map[string]bool{}
	for _, m := range o.file.EndToEnd {
		gated[m.Name] = true
	}
	breaches := 0
	for _, w := range workloads {
		for _, m := range append(append([]metricDef(nil), o.file.EndToEnd...), o.file.PerLayer...) {
			a, ok := passes[0][w.Name][m.Name]
			if !ok {
				continue
			}
			b := passes[1][w.Name][m.Name]
			diff := math.Abs(b.Value-a.Value) / math.Abs(a.Value)
			verdict := "ungated"
			if gated[m.Name] {
				verdict = fmt.Sprintf("bound %4.1f%%  ok", 100*m.Bound)
				if diff > m.Bound {
					verdict = fmt.Sprintf("bound %4.1f%%  BREACH", 100*m.Bound)
					breaches++
				}
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %-5s diff %6.2f%%  %s\n",
				w.Name, m.Name, a.Value, b.Value, m.Unit, 100*diff, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d workload/metric pairs moved by more than their bound between two runs of the same code", breaches)
	}
	fmt.Println("selfcheck: every gated pair within its bound")
	return nil
}
