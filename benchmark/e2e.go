package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/server"
	"bismarck/internal/sqlish"
)

const (
	tableName  = "t"
	serveModel = "ms"

	// window is how many frames a closed loop keeps in flight (the
	// wire-bin/point/1c shape of BENCH_8, so history carries).
	window = 50
	// openRate is the open loop's fixed request rate, about a tenth of the
	// closed-loop capacity of one connection on the reference box.
	openRate = 10000
	// latenessLimitUS is the generator lateness p99 beyond which a group
	// of open-loop requests is left out of the latency figures.
	latenessLimitUS = 200
	// setups is how many times set-up is repeated; setup_s is their median.
	setups = 5
	// e2eRounds is how many measured statement rounds an end-to-end run
	// takes; the traced run's brief look takes tracedRounds. Either way one
	// more round runs first and is discarded: it pays for cold pages and
	// caches.
	e2eRounds    = 7
	tracedRounds = 2
	// closedSlices is how many equal slices a closed-loop phase is cut
	// into; the metric is the median of their rates, so one scheduler
	// hiccup on a shared two-core box moves one slice, not the metric.
	closedSlices = 10
	// nolockTolerance bounds how far the racy NoLock loss may sit from the
	// sequential one: it lands 5-12 % off on the dense data.
	nolockTolerance = 0.15
)

// Shares of --seconds each phase of an end-to-end run gets: the statement
// rounds, then the closed loop. BENCHMARK.json's run_seconds is chosen so
// that the closed loop's share is at least 8 s and the statements' share
// holds e2eRounds rounds of about two seconds.
const (
	statementShare = 0.62
	closedShare    = 0.38
)

// rounds is how many measured statement rounds a run takes: e2eRounds, and
// more only when --seconds asks for a longer run than run_seconds.
func (r *e2e) rounds() int { return max(e2eRounds, int(r.seconds*statementShare/2)) }

// Shares of --seconds the traced run's daemon phase gives each of its three
// closed loops and one open-loop phase (about 2 s and 5 s at
// BENCHMARK.json's run_seconds). An open-loop phase needs latencyGroups
// one-second groups in which the generator was on time, and is run again,
// up to latencyAttempts times in all, when it has fewer.
const (
	tracedLoopShare = 0.09
	latencyShare    = 0.25
	latencyGroups   = 3
	latencyAttempts = 3
)

// variant is one timed statement shape. A sample is the mean of Repeat
// back-to-back executions.
type variant struct {
	Metric string
	SQL    string
	Repeat int
}

// phaseReport is the bookkeeping every phase prints.
type phaseReport struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`
	// Open-loop phases only.
	// Open-loop phases only: the generator's lateness over the groups used,
	// how many groups the phase had, how many were left out because the
	// generator ran late in them, and whether enough remained.
	LatenessP50US float64 `json:"lateness_p50_us,omitempty"`
	LatenessP99US float64 `json:"lateness_p99_us,omitempty"`
	Groups        int     `json:"groups,omitempty"`
	LateGroups    int     `json:"late_groups,omitempty"`
	Valid         *bool   `json:"valid,omitempty"`
}

// observed collects the distinct scores seen per probe point (and the
// distinct score vectors per batch start), for checking against the
// persisted generations once the daemon has stopped.
type observed struct {
	bin   [numPoints][]float64
	text  [numPoints][]float64
	batch [numPoints][][]float64
}

func addDistinct(set []float64, v float64) []float64 {
	if slices.Contains(set, v) {
		return set
	}
	return append(set, v)
}

func (o *observed) addBatch(start int, scores []float64) {
	if !slices.ContainsFunc(o.batch[start], func(b []float64) bool { return slices.Equal(b, scores) }) {
		o.batch[start] = append(o.batch[start], slices.Clone(scores))
	}
}

func (o *observed) merge(p *observed) {
	for i := range o.bin {
		for _, v := range p.bin[i] {
			o.bin[i] = addDistinct(o.bin[i], v)
		}
		for _, v := range p.text[i] {
			o.text[i] = addDistinct(o.text[i], v)
		}
		for _, b := range p.batch[i] {
			o.addBatch(i, b)
		}
	}
}

// deployment is one set-up: a catalog directory, the daemon serving it,
// two shard executors and a control connection.
type deployment struct {
	dir    string
	daemon *child
	execs  []*child
	ctl    *server.Client
}

// e2e is one end-to-end run of one workload.
type e2e struct {
	w       workload
	in      inputs
	seed    int64
	seconds float64
	bin     string // built bismarckd
	base    string // where catalog directories go
	p       *procs

	rep       *report
	attempted int
	failed    int
	seen      observed
}

// variants returns one round of statements: the two shapes an end-to-end
// run has time for, or, full (the traced run), every shape once, so the
// loss parity checks see all four trainers.
func (r *e2e) variants(d *deployment, full bool) []variant {
	s := r.w.stmtSeed(r.seed)
	// An overlap workload's sequential TRAIN replaces the served model, so
	// every repetition bumps its generation and forces a cache refill under
	// the open loop; same seed, so the coefficients (and scores) repeat.
	seqInto := "m_seq"
	if r.w.Overlap {
		seqInto = serveModel
	}
	seq := variant{"train_stmt_s", r.w.trainSQL("", s, seqInto), 1}
	predict := variant{"predict_into_stmt_s", fmt.Sprintf("SELECT vec FROM %s TO PREDICT USING %s INTO p;", tableName, serveModel), 1}
	if !full {
		predict.Repeat = r.w.PredictRepeat
		return []variant{seq, predict}
	}
	execs := fmt.Sprintf(", shards=2, executors='%s,%s'", d.execs[0].addr, d.execs[1].addr)
	return []variant{
		seq,
		{"train_nolock_stmt_s", r.w.trainSQL(", parallel=nolock, workers=2", s, "m_nolock"), 1},
		{"train_sharded_stmt_s", r.w.trainSQL(", shards=2", s, "m_sharded"), 1},
		{"train_dist_stmt_s", r.w.trainSQL(execs, s, "m_dist"), 1},
		predict,
		{"evaluate_stmt_s", fmt.Sprintf("SELECT vec, label FROM %s TO EVALUATE USING %s;", tableName, serveModel), 1},
	}
}

// setupTimes is each set-up's wall time and where it went.
type setupTimes struct{ load, start, warm, total []float64 }

// setup creates a catalog under the base directory, loads the generated
// table into it, starts executors and daemon, and runs the warm-up
// statement: a one-epoch TRAIN, the cheapest statement that takes a cold
// process through every layer (parse, scan from the heap file, projection,
// an epoch, a loss pass, model save, swap, cache refill). It files the wall
// time of all of that in t.
func (r *e2e) setup(i int, t *setupTimes) (*deployment, error) {
	begin := time.Now()
	d := &deployment{dir: filepath.Join(r.base, fmt.Sprintf("cat%d", i))}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	if err := loadCatalog(d.dir, r.in.Src); err != nil {
		return nil, err
	}
	loaded := time.Since(begin).Seconds()
	for j := 0; j < 2; j++ {
		ex, err := r.p.start(r.bin, "shard executor on", "-executor", "-listen", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.execs = append(d.execs, ex)
	}
	// The serving queue is sized above the closed loop's window: the phases
	// measure throughput and latency, not shed policy, and a workload must
	// not contain operations that fail by design.
	daemon, err := r.p.start(r.bin, "serving catalog", "-data", d.dir, "-listen", "127.0.0.1:0",
		"-serve-queue", "4096")
	if err != nil {
		return nil, err
	}
	d.daemon = daemon
	if d.ctl, err = server.Dial(daemon.addr); err != nil {
		return nil, fmt.Errorf("dialing daemon: %w", err)
	}
	started := time.Since(begin).Seconds()
	r.attempted++
	if _, err := d.ctl.Exec(r.w.warmupSQL(r.seed)); err != nil {
		return nil, fmt.Errorf("warm-up statement: %w", err)
	}
	total := time.Since(begin).Seconds()
	t.load, t.start = append(t.load, loaded), append(t.start, started-loaded)
	t.warm, t.total = append(t.warm, total-started), append(t.total, total)
	return d, nil
}

// loadCatalog writes src into a fresh file catalog at dir as table t.
func loadCatalog(dir string, src *engine.Table) error {
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		return err
	}
	dst, err := cat.Create(tableName, src.Schema)
	if err != nil {
		cat.Close()
		return err
	}
	if err := src.CopyTo(dst); err != nil {
		cat.Close()
		return err
	}
	if err := cat.Save(); err != nil {
		cat.Close()
		return err
	}
	return cat.Close()
}

// teardown stops the deployment's processes and removes its catalog.
func (d *deployment) teardown() {
	if d.ctl != nil {
		d.ctl.Close()
	}
	if d.daemon != nil {
		d.daemon.stop()
	}
	for _, ex := range d.execs {
		ex.stop()
	}
	os.RemoveAll(d.dir)
}

var (
	lossRE  = regexp.MustCompile(`final loss ([^;]+);`)
	rowsRE  = regexp.MustCompile(`predicted (\d+) rows into`)
	accRE   = regexp.MustCompile(`accuracy=([0-9.]+)`)
	shedsRE = regexp.MustCompile(`sheds=(\d+)`)
)

// statements runs the variants round-robin on ctl: one discarded warm-up
// round, then rounds measured ones. The count is fixed, not fitted to the
// clock, and so is how often a short shape repeats inside a sample: a
// fresh daemon's statements get faster for its first minute (a dense
// TRAIN 1.35 -> 1.05 s over thirty repetitions as its heap settles), so
// two runs agree only when they execute the same sequence and time the
// same part of it. Every output is checked. Given the daemon, it also
// restarts the daemon's resident-set high-water mark before each round and
// reads it after, where the kernel lets it. It returns the per-metric
// samples in seconds (and the rounds' peaks under roundPeakRSS) plus when
// each sequential TRAIN ran (the overlap workload reads the open loop's
// latency inside those windows).
func (r *e2e) statements(ctl *server.Client, daemon *child, vs []variant, rounds int) (map[string][]float64, [][2]time.Time, error) {
	samples := map[string][]float64{}
	var seqWindows [][2]time.Time
	start := time.Now()
	var first map[string]string
	attempted := 0
	round := 0 // round 0 is the warm-up
	for ; round <= rounds; round++ {
		resetRSS := daemon != nil && daemon.resetPeakRSS() == nil
		losses := map[string]string{}
		for _, v := range vs {
			t0 := time.Now()
			for k := 0; k < v.Repeat; k++ {
				attempted++
				r.attempted++
				body, err := ctl.Exec(v.SQL)
				if err != nil {
					r.failed++
					return nil, nil, fmt.Errorf("%s: %w", v.Metric, err)
				}
				if err := r.checkStatement(v.Metric, body, losses); err != nil {
					return nil, nil, err
				}
			}
			if round == 0 {
				continue
			}
			samples[v.Metric] = append(samples[v.Metric], time.Since(t0).Seconds()/float64(v.Repeat))
			if v.Metric == "train_stmt_s" {
				seqWindows = append(seqWindows, [2]time.Time{t0, time.Now()})
			}
		}
		if resetRSS && round > 0 {
			peak, err := daemon.peakRSSMB()
			if err != nil {
				return nil, nil, err
			}
			samples[roundPeakRSS] = append(samples[roundPeakRSS], peak)
		}
		if first == nil {
			first = losses
		}
		if err := checkLosses(losses, first); err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	r.rep.Phases = append(r.rep.Phases, phaseReport{Name: "statements", Seconds: time.Since(start).Seconds(),
		Attempted: attempted, Succeeded: attempted, Samples: round - 1})
	return samples, seqWindows, nil
}

// roundPeakRSS keys, among the statement samples, the daemon's peak
// resident set within each measured round, in MB.
const roundPeakRSS = "round_peak_rss_mb"

// checkStatement validates one statement's output and files its loss.
func (r *e2e) checkStatement(metric, body string, losses map[string]string) error {
	switch metric {
	case "predict_into_stmt_s":
		m := rowsRE.FindStringSubmatch(body)
		if m == nil || m[1] != strconv.Itoa(r.w.Rows) {
			return fmt.Errorf("PREDICT INTO wrote %q, want %d rows", strings.TrimSpace(body), r.w.Rows)
		}
	case "evaluate_stmt_s":
		m := accRE.FindStringSubmatch(body)
		if m == nil {
			return fmt.Errorf("EVALUATE printed no accuracy: %q", strings.TrimSpace(body))
		}
		if acc, _ := strconv.ParseFloat(m[1], 64); acc < r.w.MinAccuracy {
			return fmt.Errorf("EVALUATE accuracy %s below %.2f", m[1], r.w.MinAccuracy)
		}
	default:
		m := lossRE.FindStringSubmatch(body)
		if m == nil {
			return fmt.Errorf("%s printed no final loss: %q", metric, strings.TrimSpace(body))
		}
		losses[metric] = m[1]
	}
	return nil
}

// checkLosses holds one round's losses to the parity rules, for whichever
// trainers the round ran: the deterministic ones repeat the first round's
// loss exactly, distributed equals in-process sharded (DESIGN.md §11), and
// NoLock lands near sequential.
func checkLosses(losses, first map[string]string) error {
	for _, m := range []string{"train_stmt_s", "train_sharded_stmt_s", "train_dist_stmt_s"} {
		if losses[m] != first[m] {
			return fmt.Errorf("%s loss %s differs from the first round's %s at the same seed", m, losses[m], first[m])
		}
	}
	if d, s := losses["train_dist_stmt_s"], losses["train_sharded_stmt_s"]; d != "" && s != "" && d != s {
		return fmt.Errorf("distributed loss %s != sharded loss %s", d, s)
	}
	if nolock := losses["train_nolock_stmt_s"]; nolock != "" {
		sv, err1 := strconv.ParseFloat(losses["train_stmt_s"], 64)
		nv, err2 := strconv.ParseFloat(nolock, 64)
		if err1 != nil || err2 != nil || math.Abs(nv-sv) > nolockTolerance*math.Abs(sv) {
			return fmt.Errorf("NoLock loss %s not within %.0f%% of sequential %s", nolock, 100*nolockTolerance, losses["train_stmt_s"])
		}
	}
	return nil
}

// closedLoop keeps window frames in flight on cl for dur and sets metric to
// the median predictions/s over slices. mode is "bin" or "text"; batch is
// the points per frame (text frames carry one).
func (r *e2e) closedLoop(metric string, cl *server.Client, mode string, batch int, dur time.Duration) error {
	name := "closed_loop." + metric
	var obs observed
	points := make([][]float64, batch)
	start := time.Now()
	slice := (dur / closedSlices).Seconds()
	sliceStart, slicePreds := start, 0
	var rates []float64
	var id uint64
	sent, failed := 0, 0
	for len(rates) < closedSlices {
		first := id
		for i := 0; i < window; i++ {
			id++
			pt := int(id) % numPoints
			var err error
			if mode == "bin" {
				for j := range points {
					points[j] = r.in.Points[(pt+j)%numPoints]
				}
				err = cl.SendBinPredict(id, serveModel, points)
			} else {
				err = cl.SendFrame(id, r.in.PointStmt[pt])
			}
			if err != nil {
				return fmt.Errorf("%s: send: %w", name, err)
			}
		}
		sent += window
		for i := 0; i < window; i++ {
			var f server.Frame
			var err error
			if mode == "bin" {
				f, err = cl.ReadBinFrame()
			} else {
				f, err = cl.ReadFrame()
			}
			if err != nil {
				return fmt.Errorf("%s: read: %w", name, err)
			}
			if f.Err != "" || f.ID <= first || f.ID > id || len(f.Scores) != batch {
				failed++
				continue
			}
			pt := int(f.ID) % numPoints
			switch {
			case mode == "text":
				obs.text[pt] = addDistinct(obs.text[pt], f.Scores[0])
			case batch == 1:
				obs.bin[pt] = addDistinct(obs.bin[pt], f.Scores[0])
			default:
				obs.addBatch(pt, f.Scores)
			}
			slicePreds += batch
		}
		if el := time.Since(sliceStart).Seconds(); el >= slice {
			rates = append(rates, float64(slicePreds)/el)
			sliceStart, slicePreds = time.Now(), 0
		}
	}
	r.seen.merge(&obs)
	r.attempted += sent
	r.failed += failed
	r.rep.Samples[name] = rates
	r.rep.Phases = append(r.rep.Phases, phaseReport{Name: name, Seconds: time.Since(start).Seconds(),
		Attempted: sent, Succeeded: sent - failed, Failed: failed, Samples: len(rates)})
	r.rep.set(metric, median(rates), "1/s", len(rates))
	return nil
}

// openOut is one finished open-loop phase, filed by fileOpen on the main
// goroutine (the loop itself may have run beside the statement phase).
type openOut struct {
	res     openResult
	obs     observed
	start   time.Time
	seconds float64
	err     error
}

// openPhase runs the open loop on cl (already binary) for n requests, or
// until stop is closed when n is 0. It touches nothing shared.
func (r *e2e) openPhase(cl *server.Client, n int, stop <-chan struct{}) *openOut {
	start := time.Now()
	out := &openOut{start: start}
	point := make([][]float64, 1)
	ol := &openLoop{
		clk:      realClock{t0: start},
		interval: time.Second / openRate,
		n:        n,
		stop:     stop,
		send: func(i int) error {
			point[0] = r.in.Points[i%numPoints]
			return cl.SendBinPredict(uint64(i+1), serveModel, point)
		},
		recv: func() (int, bool, error) {
			f, err := cl.ReadBinFrame()
			if err != nil {
				return 0, false, err
			}
			if f.ID == 0 || f.Err != "" || len(f.Scores) != 1 {
				return 0, true, nil
			}
			pt := int(f.ID-1) % numPoints
			out.obs.bin[pt] = addDistinct(out.obs.bin[pt], f.Scores[0])
			return int(f.ID - 1), false, nil
		},
		abort: func() { cl.Close() },
	}
	out.res, out.err = ol.run()
	out.seconds = time.Since(start).Seconds()
	return out
}

// fileOpen records an open-loop phase's bookkeeping and returns its two
// latency figures: the median over groups of requests of each group's own
// p50 and p99. Groups are consecutive seconds of the schedule, or, when
// windows is given, the requests that were due inside each window. Replies
// are timed from when their request was due, so a group in which the
// generator itself ran late (lateness p99 beyond latenessLimitUS) would
// charge the harness's stall to the server: such groups are left out, and
// ok reports whether at least need groups (all of them, in a phase that has
// fewer) remained. The figures of a phase that is not ok must not be used.
func (r *e2e) fileOpen(name string, o *openOut, windows [][2]time.Time, need int) (p50, p99 float64, ok bool, err error) {
	if o.err != nil {
		return 0, 0, false, fmt.Errorf("%s: %w", name, o.err)
	}
	r.seen.merge(&o.obs)
	// A request that got no latency (error frame) is a failed operation.
	failed := o.res.Sent - len(o.res.Latency)
	r.attempted += o.res.Sent
	r.failed += failed

	var ranges [][2]int
	if windows == nil {
		for lo := 0; lo+openRate <= o.res.Sent; lo += openRate {
			ranges = append(ranges, [2]int{lo, lo + openRate})
		}
		if len(ranges) == 0 { // shorter than one group: all of it is one
			ranges = [][2]int{{0, o.res.Sent}}
		}
	}
	interval := time.Second / openRate
	for _, w := range windows {
		lo, hi := int(w[0].Sub(o.start)/interval)+1, int(w[1].Sub(o.start)/interval)
		lo = max(lo, 0)
		ranges = append(ranges, [2]int{lo, max(lo, min(hi, o.res.Sent))})
	}
	var onTime [][2]int
	var used []float64 // the lateness of the requests the figures use
	for _, rg := range ranges {
		late := o.res.Lateness[rg[0]:rg[1]]
		if medianAndP99(late).p99 <= latenessLimitUS {
			onTime = append(onTime, rg)
			used = append(used, late...)
		}
	}
	p50s, p99s := groupLatency(o.res.Latency, o.res.Index, onTime)
	ok = len(p50s) >= min(need, len(ranges)) && len(p50s) > 0
	late := medianAndP99(used)
	r.rep.Phases = append(r.rep.Phases, phaseReport{Name: name, Seconds: o.seconds,
		Attempted: o.res.Sent, Succeeded: len(o.res.Latency), Failed: failed, Samples: len(o.res.Latency),
		LatenessP50US: late.p50, LatenessP99US: late.p99, Groups: len(ranges), LateGroups: len(ranges) - len(onTime), Valid: &ok})
	if !ok {
		return 0, 0, false, nil
	}
	r.rep.Samples[name+".p50_us"], r.rep.Samples[name+".p99_us"] = p50s, p99s
	whole := summarize(o.res.Latency)
	r.rep.Diagnostics[name+".whole_phase_tail_q"] = whole.TailQ
	r.rep.Diagnostics[name+".whole_phase_tail_us"] = whole.Tail
	return median(p50s), median(p99s), true, nil
}

// minGroup is the fewest replies a group needs for its p99 to have ten
// samples beyond it.
const minGroup = 1000

// groupLatency returns the p50 and p99 of the replies whose request index
// falls in each [lo, hi) range; idx is ascending and parallel to lat.
// Groups with fewer than minGroup replies are skipped.
func groupLatency(lat []float64, idx []int, ranges [][2]int) (p50s, p99s []float64) {
	for _, rg := range ranges {
		lo, hi := sort.SearchInts(idx, rg[0]), sort.SearchInts(idx, rg[1])
		if hi-lo < minGroup {
			continue
		}
		p := medianAndP99(lat[lo:hi])
		p50s, p99s = append(p50s, p.p50), append(p99s, p.p99)
	}
	return p50s, p99s
}

// quietHarness holds the harness's own collector off until the returned
// function is called: a mark phase takes one of this process's two Ps for
// milliseconds, which set-up would report as the daemon's and the open loop
// as server latency. The memory limit keeps a leak bounded.
func quietHarness() (restore func()) {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(3 << 30)
	return func() {
		debug.SetMemoryLimit(limit)
		debug.SetGCPercent(percent)
	}
}

// deploy sets up n times, filing each timing in t and tearing every
// deployment down but the last, trains the served model on that one and
// returns it.
func (r *e2e) deploy(n int, t *setupTimes) (*deployment, error) {
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.teardown()
		}
		var err error
		if d, err = r.setup(len(t.total), t); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(t.total), err)
		}
	}
	// The served model, trained for the workload's epochs; not part of set-up.
	r.attempted++
	if _, err := d.ctl.Exec(r.w.trainSQL("", r.w.stmtSeed(r.seed), serveModel)); err != nil {
		d.teardown()
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	return d, nil
}

// setupAgain sets up one more deployment beside the one under measurement
// (idle at that moment), files its timing and tears it down. An
// end-to-end run spreads its set-ups over its whole length this way: the
// machine's speed drifts by 10-30 % over tens of seconds, and five
// set-ups in a row would all sample one moment of it.
func (r *e2e) setupAgain(t *setupTimes) error {
	d, err := r.setup(len(t.total), t)
	if d != nil {
		d.teardown()
	}
	if err != nil {
		return fmt.Errorf("set-up %d: %w", len(t.total), err)
	}
	return nil
}

// dialBinary opens a connection to the daemon in binary frame mode.
func dialBinary(addr string) (*server.Client, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := cl.Binary(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// budget is share of --seconds as a duration.
func (r *e2e) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// run executes the whole end-to-end program and fills r.rep.Metrics.
func (r *e2e) run() error {
	defer quietHarness()()
	// Five set-ups: two now (the second is the deployment measured), one
	// after the statements and two after the closed loop.
	var times setupTimes
	d, err := r.deploy(2, &times)
	if err != nil {
		return err
	}
	defer d.teardown()

	sheds0, err := r.sheds(d.ctl)
	if err != nil {
		return err
	}
	binConn, err := dialBinary(d.daemon.addr)
	if err != nil {
		return err
	}
	defer binConn.Close()

	user0, sys0, err := d.daemon.cpuSeconds()
	if err != nil {
		return err
	}
	steal0 := stealSeconds()
	// Statements. The overlap workload serves the open loop beside them, as
	// load; its latencies are diagnostics here (the traced run measures the
	// latency metrics).
	vs := r.variants(d, false)
	var samples map[string][]float64
	if r.w.Overlap {
		stop := make(chan struct{})
		done := make(chan *openOut, 1)
		go func() { done <- r.openPhase(binConn, 0, stop) }()
		var windows [][2]time.Time
		samples, windows, err = r.statements(d.ctl, d.daemon, vs, r.rounds())
		close(stop)
		open := <-done
		if err == nil {
			var p50, p99 float64
			var ok bool
			if p50, p99, ok, err = r.fileOpen("open_loop_beside_statements", open, windows, 1); ok {
				r.rep.Diagnostics["predict_p50_us_during_seq_train"] = p50
				r.rep.Diagnostics["predict_p99_us_during_seq_train"] = p99
			}
		}
	} else {
		samples, _, err = r.statements(d.ctl, d.daemon, vs, r.rounds())
	}
	if err != nil {
		return err
	}
	if err := r.setupAgain(&times); err != nil {
		return err
	}
	peaks := samples[roundPeakRSS]
	delete(samples, roundPeakRSS)
	for metric, xs := range samples {
		r.rep.set(metric, median(xs), "s", len(xs))
		r.rep.Samples[metric] = xs
	}

	// The closed loop. The overlap workload retrains the served model
	// beside it.
	stopRetrain := r.retrainBeside(d.ctl)
	closedErr := r.closedLoop("preds_per_s", binConn, "bin", 1, r.budget(closedShare))
	if err := stopRetrain(); err != nil {
		return err
	}
	if closedErr != nil {
		return closedErr
	}
	// What the daemon's threads and the hypervisor did over the statements
	// and the closed loop: a run that disagrees with its neighbours usually
	// shows it here.
	user1, sys1, err := d.daemon.cpuSeconds()
	if err != nil {
		return err
	}
	r.rep.Diagnostics["daemon_cpu_user_s"] = user1 - user0
	r.rep.Diagnostics["daemon_cpu_sys_s"] = sys1 - sys0
	r.rep.Diagnostics["vm_steal_s"] = stealSeconds() - steal0

	for len(times.total) < setups {
		if err := r.setupAgain(&times); err != nil {
			return err
		}
	}
	r.rep.Phases = append(r.rep.Phases, phaseReport{Name: "setup", Seconds: sum(times.total),
		Attempted: setups, Succeeded: setups, Samples: setups})
	r.rep.set("setup_s", median(times.total), "s", setups)
	r.rep.Samples["setup_s"] = times.total
	r.rep.Diagnostics["setup.load_s"] = median(times.load)
	r.rep.Diagnostics["setup.start_s"] = median(times.start)
	r.rep.Diagnostics["setup.warmup_s"] = median(times.warm)

	if err := r.setPeakRSS(d.daemon, peaks); err != nil {
		return err
	}
	return r.finish(d, sheds0)
}

// setPeakRSS sets the memory metric: the median over the measured rounds of
// the daemon's peak resident set within the round. The peak over the
// daemon's whole life is the largest of a few dozen collector cycles'
// overshoots and moves 6-22 % between runs of one commit; where the
// high-water mark could not be restarted it is all there is.
func (r *e2e) setPeakRSS(daemon *child, peaks []float64) error {
	if len(peaks) == 0 {
		whole, err := daemon.peakRSSMB()
		if err != nil {
			return err
		}
		peaks = []float64{whole}
	}
	r.rep.set("server_peak_rss_mb", median(peaks), "MB", len(peaks))
	r.rep.Samples["server_peak_rss_mb"] = peaks
	return nil
}

// ungated is the traced run's daemon phase: one deployment takes a brief
// look, the same way an end-to-end run would, at every user-visible figure
// that carries no bound (README.md says why none does) — all six statement
// shapes, the three frame encodings and the open loop's latency — with
// every check of an end-to-end run plus the loss parity across all four
// trainers.
func (r *e2e) ungated() error {
	defer quietHarness()()
	d, err := r.deploy(1, &setupTimes{})
	if err != nil {
		return err
	}
	defer d.teardown()
	sheds0, err := r.sheds(d.ctl)
	if err != nil {
		return err
	}
	samples, _, err := r.statements(d.ctl, d.daemon, r.variants(d, true), tracedRounds)
	if err != nil {
		return err
	}
	if err := r.setPeakRSS(d.daemon, samples[roundPeakRSS]); err != nil {
		return err
	}
	delete(samples, roundPeakRSS)
	for metric, xs := range samples {
		r.rep.set(metric, median(xs), "s", len(xs))
		r.rep.Samples[metric] = xs
	}

	binConn, err := dialBinary(d.daemon.addr)
	if err != nil {
		return err
	}
	defer binConn.Close()
	textConn, err := server.Dial(d.daemon.addr)
	if err != nil {
		return err
	}
	defer textConn.Close()
	// In the overlap workload everything from here runs beside the retrain
	// loop.
	stopRetrain := r.retrainBeside(d.ctl)
	loops := func() error {
		if err := r.closedLoop("preds_per_s", binConn, "bin", 1, r.budget(tracedLoopShare)); err != nil {
			return err
		}
		if err := r.closedLoop("preds_batch8_per_s", binConn, "bin", 8, r.budget(tracedLoopShare)); err != nil {
			return err
		}
		if err := r.closedLoop("preds_text_per_s", textConn, "text", 1, r.budget(tracedLoopShare)); err != nil {
			return err
		}
		return r.latency(binConn)
	}()
	if err := stopRetrain(); err != nil {
		return err
	}
	if loops != nil {
		return loops
	}
	return r.finish(d, sheds0)
}

// latency runs the open loop and sets the two latency metrics. A phase in
// which the generator ran late in too many groups is thrown away whole and
// run again; a run that cannot produce an on-time phase fails and prints
// no metrics, because the figures would be the harness's stalls.
func (r *e2e) latency(cl *server.Client) error {
	n := int(r.budget(latencyShare).Seconds() * openRate)
	if n > openRate {
		n -= n % openRate // whole one-second groups
	}
	for attempt := 1; ; attempt++ {
		p50, p99, ok, err := r.fileOpen("open_loop", r.openPhase(cl, n, nil), nil, latencyGroups)
		if err != nil {
			return err
		}
		if ok {
			r.rep.set("predict_p50_us", p50, "us", n)
			r.rep.set("predict_p99_us", p99, "us", n)
			return nil
		}
		if attempt == latencyAttempts {
			return fmt.Errorf("open loop: the generator ran more than %d us late (p99) in too many groups of each of %d phases; the machine is too busy to time requests from their due times", latenessLimitUS, latencyAttempts)
		}
	}
}

// retrainBeside starts, in the overlap workload, a loop on ctl that
// retrains the served model back to back, alternating two seeds so that
// consecutive generations score differently. The returned function stops
// it, waits for the statement in flight and reports its error. In an idle
// workload both are no-ops.
func (r *e2e) retrainBeside(ctl *server.Client) (stop func() error) {
	if !r.w.Overlap {
		return func() error { return nil }
	}
	quit := make(chan struct{})
	done := make(chan error, 1)
	n := 0
	go func() {
		for {
			select {
			case <-quit:
				done <- nil
				return
			default:
			}
			if _, err := ctl.Exec(r.w.trainSQL("", r.w.stmtSeed(r.seed)+int64((n+1)%2), serveModel)); err != nil {
				done <- fmt.Errorf("retrain %d: %w", n, err)
				return
			}
			n++
		}
	}()
	return func() error {
		close(quit)
		err := <-done
		r.attempted += n
		r.rep.Diagnostics["retrains_beside_serving"] = float64(n)
		if err != nil {
			r.failed++
		}
		return err
	}
}

// finish is the untimed end of a daemon run: persist reference copies of
// the generations served, hold the shed counters and the failure count to
// zero, stop the daemon (its own shutdown saves the catalog) and score the
// probe points against the persisted generations in-process.
func (r *e2e) finish(d *deployment, sheds0 int) error {
	// An idle workload never retrained ms: it is its own reference. The
	// overlap workload served the models of two seeds.
	gens := []string{serveModel}
	if r.w.Overlap {
		gens = []string{"ref0", "ref1"}
		for i, g := range gens {
			if _, err := d.ctl.Exec(r.w.trainSQL("", r.w.stmtSeed(r.seed)+int64(i), g)); err != nil {
				return err
			}
		}
	}
	sheds1, err := r.sheds(d.ctl)
	if err != nil {
		return err
	}
	r.rep.Diagnostics["serve_sheds"] = float64(sheds1 - sheds0)
	d.ctl.Close()
	d.daemon.stop()
	if sheds1 != sheds0 {
		return fmt.Errorf("daemon shed %d requests; a workload must not contain refused operations", sheds1-sheds0)
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
	}
	return r.checkScores(d.dir, gens)
}

func (r *e2e) sheds(ctl *server.Client) (int, error) {
	body, err := ctl.Exec("SHOW SERVING;")
	if err != nil {
		return 0, fmt.Errorf("SHOW SERVING: %w", err)
	}
	n := 0
	for _, m := range shedsRE.FindAllStringSubmatch(body, -1) {
		v, _ := strconv.Atoi(m[1])
		n += v
	}
	return n, nil
}

// checkScores opens the stopped daemon's catalog, loads each listed
// model's snapshot and requires every observed score to be what
// PointScratch.Score gives under one of them: binary to 1e-12, text to
// %.6g, and a batch frame wholly from one generation.
func (r *e2e) checkScores(dir string, models []string) error {
	cat, err := engine.OpenFileCatalog(dir, 0)
	if err != nil {
		return fmt.Errorf("reopening catalog: %w", err)
	}
	defer cat.Close()
	sess := &sqlish.Session{Cat: cat, Out: io.Discard}
	want := make([][]float64, len(models)) // per generation, per point
	for g, m := range models {
		snap, _, err := sess.LoadSnapshot(m)
		if err != nil {
			return fmt.Errorf("loading %s: %w", m, err)
		}
		var sc sqlish.PointScratch
		want[g] = make([]float64, numPoints)
		for i, p := range r.in.Points {
			if want[g][i], err = sc.Score(snap, p); err != nil {
				return err
			}
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	checked := 0
	for pt := 0; pt < numPoints; pt++ {
		for _, got := range r.seen.bin[pt] {
			if !anyGen(want, func(w []float64) bool { return near(w[pt], got) }) {
				return fmt.Errorf("binary score %v for point %d matches no committed generation", got, pt)
			}
			checked++
		}
		for _, got := range r.seen.text[pt] {
			if !anyGen(want, func(w []float64) bool {
				rounded, _ := strconv.ParseFloat(fmt.Sprintf("%.6g", w[pt]), 64)
				return rounded == got
			}) {
				return fmt.Errorf("text score %v for point %d matches no committed generation at %%.6g", got, pt)
			}
			checked++
		}
		for _, got := range r.seen.batch[pt] {
			if !anyGen(want, func(w []float64) bool {
				for j, s := range got {
					if !near(w[(pt+j)%numPoints], s) {
						return false
					}
				}
				return true
			}) {
				return fmt.Errorf("batch frame at point %d mixes or matches no committed generation: %v", pt, got)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("no scores were observed to check")
	}
	r.rep.Diagnostics["distinct_scores_checked"] = float64(checked)
	return nil
}

func anyGen(want [][]float64, ok func([]float64) bool) bool {
	for _, w := range want {
		if ok(w) {
			return true
		}
	}
	return false
}
