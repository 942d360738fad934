// Command benchmark is the repository's statement-level benchmark: it
// builds bismarckd, generates a workload's tables from a seed, drives a
// real daemon (and two shard executors) over TCP, checks the outputs and
// prints every end-to-end metric; with -trace 1 it instead times each
// layer's public functions in-process, takes a brief look at the ungated
// user-visible figures against a daemon, and prints the per-layer metrics.
// See README.md in this directory.
//
//	go run -C benchmark . -workload train_dense -seed 1
//	go run -C benchmark . -workload train_dense -seed 1 -trace 1
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json at the root of the checkout, the one
// place the workloads' reasons, the metrics, their units, directions and
// bounds, and the run length are written down. The harness reads it at
// start-up and holds every run to it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readBenchmarkFile loads BENCHMARK.json and checks it against the
// harness: names of the contract's alphabet, each used once, and exactly
// the workloads this program can run, in its order.
func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q is not of the form %s", kind, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: %s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	if len(f.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name {
			return nil, fmt.Errorf("BENCHMARK.json: workload %d is %q, the harness's is %q", i, w.Name, workloads[i].Name)
		}
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
	}
	if f.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d", f.RunSeconds)
	}
	return &f, nil
}

// nameRE is what a metric or workload name may look like.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// envBlock records where the numbers were taken; both sides of any
// comparison must share it.
type envBlock struct {
	CPU              string `json:"cpu"`
	Cores            int    `json:"cores"`
	HarnessProcs     int    `json:"harness_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	Go               string `json:"go"`
	FS               string `json:"fs"`
	Dir              string `json:"dir"`
}

// report is the full account of one run, printed as a "report" line before
// the result line.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Env         envBlock               `json:"env"`
	WallS       float64                `json:"wall_s"`
	Phases      []phaseReport          `json:"phases,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Diagnostics map[string]float64     `json:"diagnostics,omitempty"`
	// Samples holds the raw repetitions behind each summarised metric.
	Samples   map[string][]float64 `json:"samples,omitempty"`
	SelfTimeS map[string]float64   `json:"self_time_s,omitempty"`
}

func (rep *report) set(name string, v float64, unit string, n int) {
	rep.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// result is the one-line contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	dir       string
	root      string
	selfcheck bool
	traceOut  string
	file      *benchmarkFile
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or \"all\"")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long the measured phases of an end-to-end run last (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which prints the per-layer metrics")
	flag.StringVar(&o.dir, "dir", "", "where catalogs go (default: /dev/shm when writable, else <root>/.bench_build)")
	flag.StringVar(&o.root, "root", "", "checkout root (default: found upward from the working directory)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice, interleaved, and hold the differences to BENCHMARK.json's bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its spans (default: <root>/.bench_build/trace.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := mainErr(o); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	o.root = root
	if o.file, err = readBenchmarkFile(root); err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(o.file.RunSeconds)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.selfcheck {
		return selfcheck(o)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		rep, res, err := runOne(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printReport(rep)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// findRoot returns the checkout root: the directory holding cmd/bismarckd.
func findRoot(flagRoot string) (string, error) {
	dir := flagRoot
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if st, err := os.Stat(filepath.Join(d, "cmd", "bismarckd")); err == nil && st.IsDir() {
			return d, nil
		}
		if d == filepath.Dir(d) || flagRoot != "" {
			return "", fmt.Errorf("no cmd/bismarckd at or above %s: run inside the checkout or pass -root", dir)
		}
	}
}

// runOne runs one workload once, end to end or traced, with every child
// process and scratch path gone by the time it returns.
func runOne(o options, w workload) (rep *report, res result, err error) {
	start := time.Now()
	p := &procs{}
	defer p.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			p.cleanup()
			os.Exit(130)
		}
	}()
	defer func() { signal.Stop(sig); close(sig) }()

	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, res, err
	}
	base := o.dir
	if base == "" {
		base = defaultBase(build)
	}
	scratch, err := os.MkdirTemp(base, "bismarck-bench-")
	if err != nil {
		return nil, res, err
	}
	p.track(scratch)

	rep = &report{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: environment(scratch), Metrics: map[string]metricValue{}, Diagnostics: map[string]float64{}, Samples: map[string][]float64{}}
	in := w.generate(o.seed)
	binDir, err := os.MkdirTemp(build, "bin-")
	if err != nil {
		return nil, res, err
	}
	p.track(binDir)
	bin, err := buildDaemon(o.root, binDir)
	if err != nil {
		return nil, res, err
	}
	e := &e2e{w: w, in: in, seed: o.seed, seconds: o.seconds, bin: bin, base: scratch, p: p, rep: rep}
	want := o.file.EndToEnd
	if o.trace {
		want = o.file.PerLayer
		l := &layers{w: w, in: in, seed: o.seed, base: scratch, tr: newTracer(), rep: rep}
		if err := l.run(); err != nil {
			return nil, res, err
		}
		out := o.traceOut
		if out == "" {
			out = filepath.Join(build, "trace.json")
		}
		if err := writeTrace(out, l.tr.spans); err != nil {
			return nil, res, err
		}
		rep.SelfTimeS = map[string]float64{}
		for name, d := range selfTimes(l.tr.spans) {
			rep.SelfTimeS[name] = d.Seconds()
		}
		if err := e.ungated(); err != nil {
			return nil, res, err
		}
		e.attempted += len(l.tr.spans)
	} else if err := e.run(); err != nil {
		return nil, res, err
	}
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = true
	res.Metrics = map[string]metricValue{}
	// The result carries exactly the mode's declared metrics. An end-to-end
	// run also measures user-visible figures the file lists ungated; they
	// stay in the report. Nothing undeclared is measured in either mode.
	declared := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), o.file.EndToEnd...), o.file.PerLayer...) {
		declared[m.Name] = m
	}
	for name, v := range rep.Metrics {
		m, ok := declared[name]
		if !ok {
			return nil, res, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
		if v.Unit != m.Unit {
			return nil, res, fmt.Errorf("metric %s measured in %s, declared in %s", name, v.Unit, m.Unit)
		}
	}
	for _, m := range want {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			return nil, res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	if o.trace && len(rep.Metrics) != len(want) {
		return nil, res, fmt.Errorf("%d metrics measured, %d declared", len(rep.Metrics), len(want))
	}
	rep.WallS = time.Since(start).Seconds()
	return rep, res, nil
}

// defaultBase prefers tmpfs for catalogs: on the reference VM the same
// statements on the virtual disk ranged 2 s to 68 s with block first-touch,
// which no amount of repetition averages out. The daemon's flush policy
// (shadow fill, fsync, rename) is untouched either way.
func defaultBase(build string) string {
	const shm = "/dev/shm"
	if probe, err := os.MkdirTemp(shm, "bismarck-probe-"); err == nil {
		os.Remove(probe)
		return shm
	}
	return build
}

func environment(dir string) envBlock {
	env := envBlock{Cores: runtime.NumCPU(), HarnessProcs: runtime.GOMAXPROCS(0), DaemonGOMAXPROCS: 2,
		Go: runtime.Version(), FS: fsType(dir), Dir: filepath.Dir(dir), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// printReport writes the human-readable account and the report line.
func printReport(rep *report) {
	mode := "end-to-end"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Printf("workload %s seed %d (%s, %.1f s wall)\n", rep.Workload, rep.Seed, mode, rep.WallS)
	fmt.Printf("env: %s, %d cores, daemon GOMAXPROCS=%d, %s, catalogs on %s (%s)\n",
		rep.Env.CPU, rep.Env.Cores, rep.Env.DaemonGOMAXPROCS, rep.Env.Go, rep.Env.Dir, rep.Env.FS)
	for _, ph := range rep.Phases {
		line := fmt.Sprintf("phase %-28s %6.2f s  attempted %-7d succeeded %-7d failed %-3d samples %d",
			ph.Name, ph.Seconds, ph.Attempted, ph.Succeeded, ph.Failed, ph.Samples)
		if ph.Valid != nil {
			line += fmt.Sprintf("  generator lateness p50 %.1f us p99 %.1f us valid=%v", ph.LatenessP50US, ph.LatenessP99US, *ph.Valid)
		}
		fmt.Println(line)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedKeys(rep.Diagnostics) {
		fmt.Printf("diagnostic %-30s %14.6g\n", name, rep.Diagnostics[name])
	}
	for _, name := range sortedKeys(rep.SelfTimeS) {
		fmt.Printf("self time %-31s %14.6f s\n", name, rep.SelfTimeS[name])
	}
	if b, err := json.Marshal(rep); err == nil {
		fmt.Printf("report %s\n", b)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
