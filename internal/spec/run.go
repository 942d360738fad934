package spec

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"

	"bismarck/internal/baselines"
	"bismarck/internal/core"
	"bismarck/internal/dist"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/sampling"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// Knob keys shared by every task: step rule, loop control, ordering
// (§3.2), parallelism (§3.3), sampling (§3.4), and solver selection. They
// are stripped from the WITH list before task-specific binding, so a task
// never sees them.
const (
	KnobAlpha     = "alpha"
	KnobDecay     = "decay"
	KnobStep      = "step"
	KnobEpochs    = "epochs"
	KnobTol       = "tol"
	KnobSeed      = "seed"
	KnobOrder     = "order"
	KnobParallel  = "parallel"
	KnobWorkers   = "workers"
	KnobShards    = "shards"
	KnobShardBy   = "shard_by"
	KnobExecutors = "executors"
	KnobMRS       = "mrs"
	KnobReservoir = "reservoir"
	KnobSolver    = "solver"
	KnobThreshold = "threshold"
	KnobDegraded  = "degraded"
)

// KnobSpecs declares the uniform WITH parameters. Defaults marked here
// with zero sentinels are resolved in Knobs.normalize so session-level
// defaults can flow in.
var KnobSpecs = []ParamSpec{
	FloatParam(KnobAlpha, "initial step size (default: task preference)"),
	FloatDefault(KnobDecay, 0.95, "per-epoch decay: rho of geometric, exponent of diminishing"),
	EnumParam(KnobStep, []string{"geometric", "constant", "diminishing"}, "step-size rule (Appendix B)"),
	IntParam(KnobEpochs, "maximum training epochs (default: session setting)"),
	FloatDefault(KnobTol, 0, "relative loss-drop convergence tolerance (0 disables)"),
	IntDefault(KnobSeed, 1, "shuffle / init seed"),
	EnumParam(KnobOrder, []string{"shuffle_once", "shuffle_always", "clustered"}, "data ordering (§3.2)"),
	EnumParam(KnobParallel, []string{"none", "pure_uda", "lock", "aig", "nolock"}, "parallelism scheme (§3.3)"),
	IntDefault(KnobWorkers, 0, "parallel workers (0 = all cores)"),
	IntDefault(KnobShards, 0, "shared-nothing shards: K partitioned epoch workers merged by model averaging (0 disables)"),
	EnumParam(KnobShardBy, []string{"roundrobin", "hash"}, "row-to-shard assignment for shards=K"),
	StringParam(KnobExecutors, "comma-separated executor host:port list: run sharded training on remote bismarckd -executor processes"),
	IntDefault(KnobMRS, 0, "multiplexed reservoir sampling buffer capacity (§3.4)"),
	IntDefault(KnobReservoir, 0, "single-reservoir subsample buffer capacity"),
	EnumParam(KnobSolver, []string{"igd", "batch", "irls", "als"}, "training algorithm (igd is Bismarck)"),
	FloatDefault(KnobThreshold, math.NaN(), "PREDICT decision threshold (default: task preference)"),
	EnumParam(KnobDegraded, []string{"false", "true"}, "skip quarantined pages instead of failing the scan (reports rows skipped)"),
}

// MaxShards caps the shards knob and the SHOW SHARDS count. Shards are
// in-process worker partitions, so anything past a few hundred is
// operator error — and since every shard allocates a heap, a builder and
// a model replica, an unbounded K from an untrusted statement would be a
// one-line OOM kill of the daemon.
const MaxShards = 1024

// MaxExecutors caps the executors host list. Each executor costs the
// coordinator a connection, a shard-shipping pass and a per-epoch round
// trip, so a huge list from an untrusted statement is a resource-exhaustion
// vector, not a deployment anyone runs.
const MaxExecutors = 64

// ValidateShardCount is the single bounds check for every user-supplied
// shard count — the WITH shards=K knob, the SHOW SHARDS <table> [k] form,
// and programmatically built statements all funnel through it, so the
// K<=0 and K>MaxShards rules cannot drift apart across entry points.
func ValidateShardCount(k int64) error {
	if k <= 0 {
		return fmt.Errorf("spec: shard count must be a positive integer, got %d", k)
	}
	if k > MaxShards {
		return fmt.Errorf("spec: shard count %d exceeds the limit of %d", k, MaxShards)
	}
	return nil
}

// ParseExecutors validates and splits the executors knob: a comma-separated
// host:port list. Entries must carry an explicit numeric port (1..65535) —
// the coordinator dials exactly what the statement names, so a missing or
// malformed port should fail at bind time, not as a confusing dial error
// mid-train. Duplicates are rejected: the same address twice would ship two
// shard sets to one process while the planner believes it has spare
// capacity for requeue.
func ParseExecutors(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > MaxExecutors {
		return nil, fmt.Errorf("spec: executors lists %d addresses, limit is %d", len(parts), MaxExecutors)
	}
	out := make([]string, 0, len(parts))
	seen := map[string]bool{}
	for _, part := range parts {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("spec: executors has an empty address (stray comma?)")
		}
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("spec: executors address %q is not host:port: %v", addr, err)
		}
		if host == "" {
			return nil, fmt.Errorf("spec: executors address %q has an empty host", addr)
		}
		p, err := strconv.Atoi(port)
		if err != nil || p < 1 || p > 65535 {
			return nil, fmt.Errorf("spec: executors address %q has an invalid port %q", addr, port)
		}
		if seen[addr] {
			return nil, fmt.Errorf("spec: executors lists %q twice", addr)
		}
		seen[addr] = true
		out = append(out, addr)
	}
	return out, nil
}

// Knobs are the bound uniform training controls of one statement.
type Knobs struct {
	Alpha     float64 // 0 = unset
	Decay     float64
	Step      string
	Epochs    int // 0 = unset
	Tol       float64
	Seed      int64
	Order     string
	Parallel  string
	Workers   int
	Shards    int
	ShardBy   string
	Executors []string // remote executor addresses; empty = in-process
	MRS       int
	Reservoir int
	Solver    string
	Threshold float64 // NaN = unset
	Degraded  bool    // skip quarantined pages in source scans
}

// SplitKnobs separates the uniform knobs from task-specific WITH pairs
// and binds/type-checks the knob side.
func SplitKnobs(with []Param) (Knobs, []Param, error) {
	known := map[string]bool{}
	for _, s := range KnobSpecs {
		known[s.Key] = true
	}
	var knobPairs, rest []Param
	for _, pr := range with {
		if known[pr.Key] {
			knobPairs = append(knobPairs, pr)
		} else {
			rest = append(rest, pr)
		}
	}
	p, err := BindParams(KnobSpecs, knobPairs)
	if err != nil {
		return Knobs{}, nil, err
	}
	k := Knobs{
		Alpha:     p.Float(KnobAlpha),
		Decay:     p.Float(KnobDecay),
		Step:      p.Str(KnobStep),
		Epochs:    p.Int(KnobEpochs),
		Tol:       p.Float(KnobTol),
		Seed:      int64(p.Int(KnobSeed)),
		Order:     p.Str(KnobOrder),
		Parallel:  p.Str(KnobParallel),
		Workers:   p.Int(KnobWorkers),
		Shards:    p.Int(KnobShards),
		ShardBy:   p.Str(KnobShardBy),
		Executors: nil,
		MRS:       p.Int(KnobMRS),
		Reservoir: p.Int(KnobReservoir),
		Solver:    p.Str(KnobSolver),
		Threshold: p.Float(KnobThreshold),
		Degraded:  p.Str(KnobDegraded) == "true",
	}
	if execs, err := ParseExecutors(p.Str(KnobExecutors)); err != nil {
		return Knobs{}, nil, err
	} else {
		k.Executors = execs
	}
	// An explicit shards knob must be a positive partition count within the
	// shared MaxShards bound: shards=0 silently meaning "unsharded" would
	// mask a typo (the default 0 only means "no sharding" when omitted).
	for _, pr := range knobPairs {
		if pr.Key == KnobShards {
			if err := ValidateShardCount(pr.Val.Int); err != nil {
				return Knobs{}, nil, err
			}
		}
		if pr.Key == KnobShardBy && k.Shards == 0 && len(k.Executors) == 0 {
			return Knobs{}, nil, fmt.Errorf("spec: shard_by requires shards=K or executors=...")
		}
	}
	// Distributed training is the sharded mode with remote workers, so the
	// shards knob composes with executors (it pins K); everything else in
	// the exclusive set conflicts with it exactly as it does with shards.
	sharded := k.Shards > 0 || len(k.Executors) > 0
	exclusive := 0
	for _, on := range []bool{k.Parallel != "none", k.MRS > 0, k.Reservoir > 0, sharded} {
		if on {
			exclusive++
		}
	}
	if exclusive > 1 {
		return Knobs{}, nil, fmt.Errorf("spec: parallel, mrs, reservoir and shards/executors are mutually exclusive")
	}
	// Reject explicitly-written knobs the selected trainer would silently
	// ignore (defaults are fine): baseline solvers have no IGD step/order
	// machinery, and the sampling trainers have no ordering or tolerance.
	rejectExplicit := func(mode string, keys ...string) error {
		for _, pr := range knobPairs {
			for _, key := range keys {
				if pr.Key == key {
					return fmt.Errorf("spec: %s ignores %s — remove it or drop %s", mode, pr.Key, mode)
				}
			}
		}
		return nil
	}
	if k.Solver != "igd" {
		if exclusive > 0 {
			return Knobs{}, nil, fmt.Errorf("spec: solver=%s does not combine with parallel/mrs/reservoir/shards", k.Solver)
		}
		// IRLS and ALS take no step size, and IRLS always starts from zero.
		ignored := map[string][]string{"irls": {KnobAlpha, KnobSeed}, "als": {KnobAlpha}}[k.Solver]
		if err := rejectExplicit("solver="+k.Solver, append(ignored, KnobOrder, KnobStep, KnobDecay)...); err != nil {
			return Knobs{}, nil, err
		}
	}
	if k.MRS > 0 {
		if err := rejectExplicit("mrs", KnobOrder, KnobTol); err != nil {
			return Knobs{}, nil, err
		}
	}
	if k.Reservoir > 0 {
		if err := rejectExplicit("reservoir", KnobOrder, KnobTol); err != nil {
			return Knobs{}, nil, err
		}
	}
	// Sharded training runs exactly one worker per shard; an explicit
	// workers knob would be silently ignored.
	if k.Shards > 0 {
		if err := rejectExplicit("shards", KnobWorkers); err != nil {
			return Knobs{}, nil, err
		}
	}
	if len(k.Executors) > 0 {
		if err := rejectExplicit("executors", KnobWorkers); err != nil {
			return Knobs{}, nil, err
		}
	}
	return k, rest, nil
}

// StepRule builds the statement's step rule; alpha0 resolves unset alpha.
// A baseline solver takes its step as given: batch GD's line search does
// its own shrinking, and IRLS / ALS have no step size at all.
func (k Knobs) StepRule(alpha0 float64) core.StepRule {
	a := k.Alpha
	if a == 0 {
		a = alpha0
	}
	switch {
	case k.Solver != "igd" || k.Step == "constant":
		return core.ConstantStep{A: a}
	case k.Step == "diminishing":
		p := k.Decay
		if p <= 0 || p > 1 {
			p = 1
		}
		return core.DiminishingStep{A0: a, P: p}
	default:
		rho := k.Decay
		if rho <= 0 || rho >= 1 {
			rho = 0.95
		}
		return core.GeometricStep{A0: a, Rho: rho}
	}
}

// OrderStrategy maps the order knob onto §3.2's strategies.
func (k Knobs) OrderStrategy() core.OrderStrategy {
	switch k.Order {
	case "shuffle_always":
		return ordering.ShuffleAlways{}
	case "clustered":
		return ordering.Clustered{}
	default:
		return ordering.ShuffleOnce{}
	}
}

// ShardStrategy maps the shard_by knob onto the engine's partitioners.
func (k Knobs) ShardStrategy() engine.ShardStrategy {
	if k.ShardBy == "hash" {
		return engine.ShardHash
	}
	return engine.ShardRoundRobin
}

// ParallelMode maps the parallel knob onto §3.3's schemes.
func (k Knobs) ParallelMode() parallel.Mode {
	switch k.Parallel {
	case "pure_uda":
		return parallel.PureUDA
	case "lock":
		return parallel.Lock
	case "aig":
		return parallel.AIG
	default:
		return parallel.NoLock
	}
}

// Outcome reports one completed training run, whichever trainer ran it.
type Outcome struct {
	Model  vector.Dense
	Epochs int
	Loss   float64 // NaN when the trainer kept no losses
	Method string  // human-readable dispatch description
}

// Train runs a TO TRAIN statement's plan: the knobs pick one epoch runner —
// sequential, a §3.3 parallel scheme, in-process or remote shards,
// reservoir, MRS, or a baseline solver — and core.Drive runs the one loop
// over it. This is the single dispatch path of the unified architecture:
// no task-specific branching happens here. A done ctx stops the loop.
func Train(ctx context.Context, ts *TaskSpec, task core.Task, k Knobs, view *engine.Table) (out *Outcome, err error) {
	r, method, done, err := planRunner(ts, task, k, view)
	if err != nil {
		return nil, err
	}
	defer func() {
		if derr := done(); derr != nil && err == nil {
			out, err = nil, derr
		}
	}()
	epochs := k.Epochs
	if epochs <= 0 {
		epochs = 20
	}
	res, err := core.Drive(r, core.LoopConfig{Task: task, Step: k.StepRule(0.1),
		MaxEpochs: epochs, RelTol: k.Tol, Seed: k.Seed, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return &Outcome{Model: res.Model, Epochs: res.Epochs, Loss: res.FinalLoss(), Method: method}, nil
}

// planRunner builds the epoch runner the knobs select, its human-readable
// dispatch description, and the func that releases whatever the plan holds
// (shard heaps, executor connections) and returns what it found failed: a
// shard heap's close. Train reports that error when the run itself
// succeeded.
func planRunner(ts *TaskSpec, task core.Task, k Knobs, view *engine.Table) (
	r core.EpochRunner, method string, done func() error, err error) {
	done = func() error { return nil }
	switch {
	case k.Solver != "igd":
		// One epoch is one full-gradient step, one Newton iteration or one
		// ALS sweep; SplitKnobs has already kept every IGD-only knob away.
		if !ts.SupportsSolver(k.Solver) {
			return nil, "", done, fmt.Errorf("spec: task %s does not support solver=%s", ts.Name, k.Solver)
		}
		lr, isLR := task.(*tasks.LR)
		lmf, isLMF := task.(*tasks.LMF)
		switch {
		case k.Solver == "batch":
			r, err = baselines.NewBatchRunner(task, view, true)
			return r, "BatchGD", done, err
		case k.Solver == "irls" && isLR:
			return baselines.NewIRLSRunner(lr, view), "IRLS", done, nil
		case k.Solver == "als" && isLMF:
			r, err = baselines.NewALSRunner(lmf, view)
			return r, "ALS", done, err
		}
		return nil, "", done, fmt.Errorf("spec: solver=%s cannot train task %s", k.Solver, ts.Name)

	case k.MRS > 0:
		r, err = sampling.NewMRSRunner(task, view, k.MRS, k.Seed)
		return r, fmt.Sprintf("IGD/MRS(buf=%d)", k.MRS), done, err

	case k.Reservoir > 0:
		r, err = sampling.NewReservoirRunner(task, view, k.Reservoir, k.Seed)
		return r, fmt.Sprintf("IGD/Reservoir(buf=%d)", k.Reservoir), done, err

	case k.Shards > 0 || len(k.Executors) > 0:
		return shardedRunner(ts, task, k, view)

	case k.Parallel != "none":
		workers := k.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		mode := k.ParallelMode()
		r, err = parallel.NewRunner(task, view, mode, workers, k.OrderStrategy(), engine.Profile{}, k.Seed)
		return r, fmt.Sprintf("IGD/%s×%d", mode, workers), done, err

	default:
		r, err = core.NewUDARunner(task, view, k.OrderStrategy(), engine.Profile{}, k.Seed, false)
		return r, "IGD", done, err
	}
}

// shardedRunner partitions the view and builds the sharded epoch over it:
// in-process shard workers for WITH shards=K, or — WITH executors=... —
// the same partition scattered to the listed bismarckd -executor daemons,
// each epoch one STEP round trip per shard. Both hand the same
// *parallel.ShardedEpoch to core.Drive, which is why a healthy distributed
// run reproduces the in-process one bit for bit. The remote form needs the
// TaskSpec, not just the built task: executors rebuild the task from its
// registry name plus the Snapshot parameters, the same metadata-only path
// model restores use.
func shardedRunner(ts *TaskSpec, task core.Task, k Knobs, view *engine.Table) (
	core.EpochRunner, string, func() error, error) {
	shards, remote := k.Shards, len(k.Executors) > 0
	if remote {
		if ts.Snapshot == nil {
			return nil, "", nil, fmt.Errorf("spec: task %s cannot train on remote executors (no parameter snapshot to ship)", ts.Name)
		}
		if dim := task.Dim(); dim > dist.MaxWireDim {
			return nil, "", nil, fmt.Errorf("spec: task dimension %d exceeds the executor wire limit %d "+
				"(train in-process with shards= instead)", dim, dist.MaxWireDim)
		}
		if shards < 1 {
			shards = dist.AdaptiveShards(view.NumRows(), len(k.Executors), MaxShards)
		}
	}
	sharded, err := engine.ShardTable(view, shards, k.ShardStrategy())
	if err != nil {
		return nil, "", nil, err
	}
	done := sharded.Close
	var se *parallel.ShardedEpoch
	method := fmt.Sprintf("IGD/Sharded×%d(%s)", shards, sharded.Strategy)
	if remote {
		method = fmt.Sprintf("IGD/Distributed(executors=%d, %s)", len(k.Executors), sharded.Strategy)
		var co *dist.Coordinator
		co, err = dist.NewCoordinator(k.Executors, sharded, dist.ShardTask{
			Name: ts.Name, Params: ts.Snapshot(task), Order: dist.OrderByte(k.Order), Seed: k.Seed}, 0)
		if err == nil {
			// The partition outlives the coordinator: requeue re-ships from it.
			done = func() error { co.Close(); return sharded.Close() }
			se, err = parallel.NewShardedEpochRunners(task, co.Runners())
		}
	} else {
		se, err = parallel.NewShardedEpoch(task, sharded, k.OrderStrategy(), k.Seed)
	}
	if err != nil {
		done()
		return nil, "", nil, err
	}
	return se, method, done, nil
}
