package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchmarkFileForTest(t *testing.T) (string, *benchmarkFile) {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	file, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, file
}

// BENCHMARK.json must stay inside the limits the driver refuses a file
// beyond, and inside the harness's own sizing rules.
func TestContractLimits(t *testing.T) {
	_, file := benchmarkFileForTest(t)
	if n := len(file.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup, largest := 0.0, 0.0
	for _, m := range file.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", m)
			}
		}
	}
	if setup == 0 || setup != largest {
		t.Errorf("setup_s must carry the largest bound: %v vs %v", setup, largest)
	}
	for _, w := range file.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if closed := closedShare * float64(file.RunSeconds); closed < 8 {
		t.Errorf("run_seconds %d gives the closed loop %.1f s, under the fixed 8 s", file.RunSeconds, closed)
	}
}

func TestNameRule(t *testing.T) {
	for name, ok := range map[string]bool{
		"train_stmt_s": true, "engine.swap_s": true, "p99-us": true, "9lives": true,
		"": false, ".hidden": false, "has space": false, "slash/name": false,
		strings.Repeat("x", 65): false,
	} {
		if nameRE.MatchString(name) != ok {
			t.Errorf("nameRE(%q) = %v, want %v", name, !ok, ok)
		}
	}
}

func TestListenAddr(t *testing.T) {
	for line, want := range map[string]string{
		`bismarckd: serving catalog "/dev/shm/x/cat0" on 127.0.0.1:41233`:             "127.0.0.1:41233",
		`bismarckd: serving catalog "/tmp/turn on here/c" on 127.0.0.1:5`:             "127.0.0.1:5",
		`bismarckd: shard executor on 127.0.0.1:41234 (in-memory, nothing persisted)`: "127.0.0.1:41234",
		`bismarckd: warmed 1 model(s) into the serving cache: [ms]`:                   "",
	} {
		if got := listenAddr(line); got != want {
			t.Errorf("listenAddr(%q) = %q, want %q", line, got, want)
		}
	}
}

// A run prints exactly the metrics BENCHMARK.json declares for its mode:
// every workload/metric pair of the file is emitted and nothing else is.
// The runs are real ones (built bismarckd, daemon and executors on
// loopback, every correctness check) on a table small enough for a test.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bismarckd and starts daemons")
	}
	root, file := benchmarkFileForTest(t)
	for _, c := range []struct {
		workload string
		trace    bool
		declared []metricDef
	}{
		{"train_dense", false, file.EndToEnd},
		{"retrain_serve_mix", false, file.EndToEnd},
		{"train_dense", true, file.PerLayer},
		{"train_sparse", true, file.PerLayer},
	} {
		w, err := findWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		w.Rows = 3000
		traceOut := filepath.Join(t.TempDir(), "trace.json")
		o := options{seed: 1, seconds: 2, trace: c.trace, root: root, file: file, dir: t.TempDir(), traceOut: traceOut}
		_, res, err := runOne(o, w)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: result %+v", c.workload, c.trace, res)
		}
		for _, m := range c.declared {
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s trace=%v: %s not emitted", c.workload, c.trace, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s trace=%v: %s in %s, declared %s", c.workload, c.trace, m.Name, v.Unit, m.Unit)
			}
		}
		if len(res.Metrics) != len(c.declared) {
			t.Errorf("%s trace=%v: %d metrics emitted, %d declared", c.workload, c.trace, len(res.Metrics), len(c.declared))
		}
		if !c.trace {
			continue
		}
		// The replayed children of the traced statement are linked to it.
		b, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		children := 0
		for _, s := range spans {
			if s.Parent >= 0 && spans[s.Parent].Name == spanStatement {
				children++
			}
		}
		if children < 8 {
			t.Errorf("%s: statement span has %d children", c.workload, children)
		}
	}
}
