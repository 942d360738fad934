package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/dist"
	"bismarck/internal/engine"
	"bismarck/internal/parallel"
	"bismarck/internal/serve"
	"bismarck/internal/server"
	"bismarck/internal/spec"
	"bismarck/internal/sqlish"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// The traced run times calls into each module's public functions from
// here, in-process, on the same generated tables as the end-to-end run.
// The program carries no spans of its own yet, so a statement is
// decomposed by replay: the real statement runs once under a parent span
// (server.session_exec), and then the calls it makes internally — parse,
// projection, epochs, loss passes, shadow fill, swap, checkpoint, cache
// refill — are made again from here, one span each, linked to that parent.
// The whole statement minus what the replayed children add up to is
// reported as server.session_unattributed_s: a replay estimate, negative
// when the replay ran slower than the original.

const (
	kernelCalls    = 2_000_000
	pointCalls     = 200_000
	roundTrips     = 4000
	parseCalls     = 2000
	snapshotLoads  = 20
	replayModel    = "m_replay"
	scanPasses     = 2
	spanStatement  = "server.session_exec"
	microBenchStmt = 0 // spans outside any statement
)

// layers is one traced run.
type layers struct {
	w    workload
	in   inputs
	seed int64
	base string
	tr   *tracer
	rep  *report
}

// timed runs fn as a root span outside any statement.
func (l *layers) timed(name string, fn func() error) (time.Duration, error) {
	_, d, err := l.tr.do(name, -1, microBenchStmt, fn)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// perCall times n calls of fn and returns nanoseconds per call.
func (l *layers) perCall(name string, n int, fn func()) float64 {
	d, _ := l.timed(name, func() error {
		for i := 0; i < n; i++ {
			fn()
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(n)
}

func (l *layers) run() error {
	dir := filepath.Join(l.base, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var fsyncs atomic.Int64
	cat, err := engine.OpenFileCatalogIO(dir, 0, engine.IOHooks{Sync: func(string) engine.IOFault {
		fsyncs.Add(1)
		return engine.IONone
	}})
	if err != nil {
		return err
	}
	defer cat.Close()

	tbl, err := l.engineLayer(cat, dir)
	if err != nil {
		return err
	}
	l.kernels()

	mgr := server.NewManager(cat, server.Options{Workers: 2, ServeQueue: 4096})
	defer mgr.Drain()
	var out bytes.Buffer
	if err := mgr.NewSession(&out).Exec(l.w.trainSQL("", l.w.stmtSeed(l.seed), serveModel)); err != nil {
		return fmt.Errorf("warm-up statement: %w", err)
	}
	if err := l.statement(cat, mgr, tbl, &fsyncs); err != nil {
		return err
	}
	if err := l.serving(cat, mgr); err != nil {
		return err
	}
	return l.wire(mgr)
}

// engineLayer loads the table and times the storage paths a statement's
// scan rides on.
func (l *layers) engineLayer(cat *engine.Catalog, dir string) (*engine.Table, error) {
	var tbl *engine.Table
	d, err := l.timed("engine.copy_load", func() error {
		var err error
		if tbl, err = cat.Create(tableName, l.in.Src.Schema); err != nil {
			return err
		}
		if err := l.in.Src.CopyTo(tbl); err != nil {
			return err
		}
		return cat.Save()
	})
	if err != nil {
		return nil, err
	}
	l.rep.set("engine.copy_load_s", d.Seconds(), "s", 1)
	st, err := os.Stat(filepath.Join(dir, tableName+".heap"))
	if err != nil {
		return nil, err
	}
	l.rep.set("engine.heap_bytes_per_user_byte", float64(st.Size())/float64(l.in.UserBytes), "ratio", 1)

	crc0 := engine.CRCVerifyCount()
	rows := 0
	d, err = l.timed("engine.scan_reuse", func() error {
		for i := 0; i < scanPasses; i++ {
			if err := tbl.ScanReuse(func(engine.Tuple) error { rows++; return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fills := engine.CRCVerifyCount() - crc0
	l.rep.set("engine.scan_reuse_rows_per_s", float64(rows)/d.Seconds(), "1/s", scanPasses)
	l.rep.set("engine.crc_verifies", float64(fills), "count", scanPasses)
	// A page is checksummed exactly when the pool fills it from disk, so
	// the verify count is the pool's miss count over these scans.
	l.rep.set("engine.pool_hit_ratio", 1-float64(fills)/float64(scanPasses*tbl.NumPages()), "ratio", scanPasses)

	d, err = l.timed("engine.materialize", func() error {
		_, err := tbl.Materialize()
		return err
	})
	if err != nil {
		return nil, err
	}
	l.rep.set("engine.materialize_s", d.Seconds(), "s", 1)
	return tbl, nil
}

// kernels times the per-row step at the two fixed shapes the workloads use
// (dense d=54; sparse nnz=12 into 41000), whatever the workload.
func (l *layers) kernels() {
	const d, sd, nnz = 54, 41000, 12
	x := make(vector.Dense, d)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i := range idx {
		idx[i], val[i] = int32(i*3001), 1
	}
	sx := vector.NewSparse(idx, val)
	gain := func(float64) float64 { return 1e-9 }
	w, sw := vector.NewDense(d), vector.NewDense(sd)
	l.rep.set("vector.dot_axpy_dense_ns", l.perCall("vector.dot_axpy_dense", kernelCalls, func() { vector.DotAxpy(w, x, gain) }), "ns", kernelCalls)
	l.rep.set("vector.dot_axpy_sparse_ns", l.perCall("vector.dot_axpy_sparse", kernelCalls, func() { vector.DotAxpySparse(sw, sx, gain) }), "ns", kernelCalls)
	dm, sm := core.NewDenseModel(d), core.NewDenseModel(sd)
	lr, svm := tasks.NewLR(d), tasks.NewSVM(sd)
	dt := engine.Tuple{engine.I64(0), engine.DenseV(x), engine.F64(1)}
	st := engine.Tuple{engine.I64(0), engine.SparseV(sx), engine.F64(1)}
	l.rep.set("tasks.lr_step_ns", l.perCall("tasks.lr_step", kernelCalls, func() { lr.Step(dm, dt, 1e-6) }), "ns", kernelCalls)
	l.rep.set("tasks.svm_step_ns", l.perCall("tasks.svm_step", kernelCalls, func() { svm.Step(sm, st, 1e-6) }), "ns", kernelCalls)
}

// statement runs one sequential TRAIN through a server session under the
// parent span, replays its internal calls as children, then times the
// other execution modes' layers on the same projected view.
func (l *layers) statement(cat *engine.Catalog, mgr *server.Manager, tbl *engine.Table, fsyncs *atomic.Int64) error {
	const stmt = 1
	sql := l.w.trainSQL("", l.w.stmtSeed(l.seed), "m_seq")
	var out bytes.Buffer
	parent, whole, err := l.tr.do(spanStatement, -1, stmt, func() error {
		return mgr.NewSession(&out).Exec(sql)
	})
	if err != nil {
		return fmt.Errorf("traced statement: %w", err)
	}
	var replayed time.Duration // what the children add up to
	child := func(name string, fn func() error) (time.Duration, error) {
		_, d, err := l.tr.do(name, parent, stmt, fn)
		if err != nil {
			return d, fmt.Errorf("replaying %s: %w", name, err)
		}
		replayed += d
		return d, nil
	}

	var st *spec.Statement
	if _, err := child("spec.parse", func() (err error) { st, err = spec.Parse(sql); return }); err != nil {
		return err
	}
	ts, err := spec.Lookup(st.Task)
	if err != nil {
		return err
	}
	knobs, rest, err := spec.SplitKnobs(st.With)
	if err != nil {
		return err
	}
	params, err := spec.BindParams(ts.Params, rest)
	if err != nil {
		return err
	}
	var view *spec.View
	d, err := child("spec.project_view", func() (err error) {
		view, err = spec.ProjectView(tbl, st, ts.Schema, spec.ViewOptions{})
		return
	})
	if err != nil {
		return err
	}
	rows := float64(view.Table.NumRows())
	l.rep.set("spec.project_view_s", d.Seconds(), "s", 1)
	l.rep.set("spec.project_rows_per_s", rows/d.Seconds(), "1/s", 1)

	var task core.Task
	if _, err := child("spec.build_task", func() (err error) {
		task, err = ts.Build(spec.BuildInput{Params: params, View: view.Table})
		return
	}); err != nil {
		return err
	}
	step, order, epochs := knobs.StepRule(0.1), knobs.OrderStrategy(), knobs.Epochs
	var w vector.Dense
	d, err = child("core.epochs", func() error {
		res, err := (&core.Trainer{Task: task, Step: step, MaxEpochs: epochs, Order: order,
			Seed: knobs.Seed, SkipLoss: true}).Run(view.Table)
		if err == nil {
			w = res.Model
		}
		return err
	})
	if err != nil {
		return err
	}
	l.rep.set("core.epoch_rows_per_s", rows*float64(epochs)/d.Seconds(), "1/s", epochs)
	d, err = child("core.loss_passes", func() error {
		for i := 0; i < epochs; i++ {
			if _, err := core.TotalLoss(task, w, view.Table); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.rep.set("core.loss_pass_rows_per_s", rows*float64(epochs)/d.Seconds(), "1/s", epochs)

	// Model save: fill both shadows, publish them with one swap, then the
	// session's catalog checkpoint and the serving cache's refill.
	shadow, meta := replayModel+engine.ShadowSuffix, replayModel+engine.MetaSuffix
	if _, err := child("engine.model_fill", func() error {
		mt, err := cat.Create(shadow, sqlish.ModelSchema)
		if err != nil {
			return err
		}
		for i, v := range w {
			if v == 0 {
				continue
			}
			if err := mt.Insert(engine.Tuple{engine.I64(int64(i)), engine.F64(v)}); err != nil {
				return err
			}
		}
		if err := mt.Flush(); err != nil {
			return err
		}
		mm, err := cat.Create(meta+engine.ShadowSuffix, sqlish.MetaSchema)
		if err != nil {
			return err
		}
		kv := [][2]string{{"task", ts.Name}, {"dim", fmt.Sprint(task.Dim())}}
		for k, v := range ts.Snapshot(task) {
			kv = append(kv, [2]string{"p:" + k, v})
		}
		for _, p := range kv {
			if err := mm.Insert(engine.Tuple{engine.Str(p[0]), engine.Str(p[1])}); err != nil {
				return err
			}
		}
		return mm.Flush()
	}); err != nil {
		return err
	}
	f0 := fsyncs.Load()
	d, err = child("engine.swap", func() error {
		return cat.Swap([]string{replayModel, meta}, []string{shadow, meta + engine.ShadowSuffix}, nil)
	})
	if err != nil {
		return err
	}
	l.rep.set("engine.swap_s", d.Seconds(), "s", 1)
	l.rep.set("engine.swap_fsyncs", float64(fsyncs.Load()-f0), "count", 1)
	if _, err := child("engine.save_meta", cat.SaveMeta); err != nil {
		return err
	}
	d, err = child("serve.refill", func() error { return mgr.Plane().Refill(replayModel) })
	if err != nil {
		return err
	}
	l.rep.set("serve.refill_us", micros(d), "us", 1)

	// The children are a second execution of the statement's parts, not a
	// measurement inside the first, so their sum is an estimate and may
	// exceed the whole: the difference is reported as it comes out, sign
	// included, beside both of its terms.
	l.rep.set("server.session_exec_train_s", whole.Seconds(), "s", 1)
	l.rep.set("server.session_unattributed_s", (whole - replayed).Seconds(), "s", 1)
	l.rep.Diagnostics["server.session_replayed_children_s"] = replayed.Seconds()
	l.rep.Diagnostics["server.session_replayed_share"] = replayed.Seconds() / whole.Seconds()

	// The same statement with no server around it: no name locks, no
	// checkpoint, no refill.
	d, err = l.timed("sqlish.train_exec", func() error {
		return (&sqlish.Session{Cat: cat, Out: io.Discard}).Exec(l.w.trainSQL("", l.w.stmtSeed(l.seed), "m_sqlish"))
	})
	if err != nil {
		return err
	}
	l.rep.set("sqlish.train_exec_s", d.Seconds(), "s", 1)

	// A PREDICT INTO-sized shadow fill: one (id, score) row per table row.
	d, err = l.timed("engine.insert_fill", func() error {
		ft, err := cat.Create("fill"+engine.ShadowSuffix, engine.Schema{
			{Name: "id", Type: engine.TInt64}, {Name: "score", Type: engine.TFloat64}})
		if err != nil {
			return err
		}
		for i := 0; i < l.w.Rows; i++ {
			if err := ft.Insert(engine.Tuple{engine.I64(int64(i)), engine.F64(0.5)}); err != nil {
				return err
			}
		}
		return ft.Flush()
	})
	if err != nil {
		return err
	}
	l.rep.set("engine.insert_rows_per_s", float64(l.w.Rows)/d.Seconds(), "1/s", 1)
	if err := cat.Drop("fill" + engine.ShadowSuffix); err != nil {
		return err
	}

	d, err = l.timed("parallel.nolock_epochs", func() error {
		_, err := (&parallel.Trainer{Task: task, Step: step, MaxEpochs: epochs, Workers: 2,
			Mode: parallel.NoLock, Order: order, Seed: knobs.Seed, SkipLoss: true}).Run(view.Table)
		return err
	})
	if err != nil {
		return err
	}
	l.rep.set("parallel.nolock_epoch_rows_per_s", rows*float64(epochs)/d.Seconds(), "1/s", epochs)
	return l.sharded(ts, task, view.Table, knobs, w)
}

// sharded times the K=2 partition, the in-process sharded epoch and loss,
// and the same epoch driven through two loopback executors.
func (l *layers) sharded(ts *spec.TaskSpec, task core.Task, view *engine.Table, knobs spec.Knobs, w vector.Dense) error {
	const k = 2
	var sh *engine.ShardedTable
	d, err := l.timed("engine.shard_table", func() (err error) {
		sh, err = engine.ShardTable(view, k, engine.ShardRoundRobin)
		return
	})
	if err != nil {
		return err
	}
	defer sh.Close()
	l.rep.set("engine.shard_table_s", d.Seconds(), "s", 1)

	se, err := parallel.NewShardedEpoch(task, sh, knobs.OrderStrategy(), knobs.Seed)
	if err != nil {
		return err
	}
	step := knobs.StepRule(0.1)
	var epochS, lossS []float64
	cur := core.InitialModel(task, knobs.Seed)
	for e := 0; e < knobs.Epochs; e++ {
		d, err := l.timed("parallel.sharded_epoch", func() error { return se.Run(e, cur, step.Alpha(e)) })
		if err != nil {
			return err
		}
		epochS = append(epochS, d.Seconds())
		if d, err = l.timed("parallel.sharded_loss", func() error { _, err := se.Loss(cur); return err }); err != nil {
			return err
		}
		lossS = append(lossS, d.Seconds())
	}
	l.rep.set("parallel.sharded_epoch_s", median(epochS), "s", len(epochS))
	l.rep.set("parallel.sharded_loss_s", median(lossS), "s", len(lossS))

	// Two executors in this process, reached over loopback like remote ones.
	var addrs []string
	for i := 0; i < k; i++ {
		srv := server.NewTCPServer(server.NewManager(engine.NewCatalog(), server.Options{}))
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		served := make(chan struct{})
		go func() { _ = srv.Serve(lis); close(served) }()
		defer func() { srv.Close(); <-served }()
		addrs = append(addrs, lis.Addr().String())
	}
	shardTask := dist.ShardTask{Name: ts.Name, Params: ts.Snapshot(task),
		Order: dist.OrderByte(knobs.Order), Seed: knobs.Seed}
	var co *dist.Coordinator
	d, err = l.timed("dist.ship", func() (err error) {
		co, err = dist.NewCoordinator(addrs, sh, shardTask, 0)
		return
	})
	if err != nil {
		return err
	}
	defer co.Close()
	l.rep.set("dist.ship_s", d.Seconds(), "s", 1)
	shipBytes, err := shipFrameBytes(sh, shardTask)
	if err != nil {
		return err
	}
	l.rep.set("dist.ship_bytes", float64(shipBytes), "bytes", 1)

	var stepUS, lossUS []float64
	replica := vector.NewDense(task.Dim())
	cur = core.InitialModel(task, knobs.Seed)
	for e := 0; e < knobs.Epochs; e++ {
		for _, r := range co.Runners() {
			d, err := l.timed("dist.step", func() error { return r.RunEpoch(e, cur, step.Alpha(e), replica) })
			if err != nil {
				return err
			}
			stepUS = append(stepUS, micros(d))
			if d, err = l.timed("dist.loss", func() error { _, err := r.LossAt(cur); return err }); err != nil {
				return err
			}
			lossUS = append(lossUS, micros(d))
		}
	}
	l.rep.set("dist.step_roundtrip_us", median(stepUS), "us", len(stepUS))
	l.rep.set("dist.loss_roundtrip_us", median(lossUS), "us", len(lossUS))
	req, err := dist.AppendStep(nil, 1, 0, 0, 0.1, w)
	if err != nil {
		return err
	}
	resp := dist.AppendOK(nil, 1, make([]float64, len(w)+1))
	l.rep.set("dist.step_bytes", float64(len(req)+len(resp)), "bytes", 1)
	return nil
}

// shipFrameBytes is the exact size of the LOAD/ROWS/SEAL request frames
// that scatter the shards, computed with the protocol's own encoders.
func shipFrameBytes(sh *engine.ShardedTable, t dist.ShardTask) (int64, error) {
	var total int64
	var buf []byte
	for i := 0; i < sh.NumShards(); i++ {
		var err error
		if buf, err = dist.AppendLoad(buf[:0], 1, uint32(i), t.Order, t.Seed+int64(i), t.Name, t.Params, sh.Schema); err != nil {
			return 0, err
		}
		total += int64(len(buf))
		err = sh.ShardChunks(i, dist.MaxRowChunkBytes, func(records [][]byte) error {
			var err error
			buf, err = dist.AppendRows(buf[:0], 1, uint32(i), records)
			total += int64(len(buf))
			return err
		})
		if err != nil {
			return 0, err
		}
		if buf, err = dist.AppendShardOnly(buf[:0], dist.OpShardSeal, 1, uint32(i)); err != nil {
			return 0, err
		}
		total += int64(len(buf))
	}
	return total, nil
}

// serving times the request path below the wire: snapshot load, scoring,
// admission, and the plane's whole Predict.
func (l *layers) serving(cat *engine.Catalog, mgr *server.Manager) error {
	sess := &sqlish.Session{Cat: cat, Out: io.Discard}
	var snap *sqlish.ModelSnapshot
	var loadUS []float64
	for i := 0; i < snapshotLoads; i++ {
		d, err := l.timed("sqlish.load_snapshot", func() (err error) {
			snap, _, err = sess.LoadSnapshot(serveModel)
			return
		})
		if err != nil {
			return err
		}
		loadUS = append(loadUS, micros(d))
	}
	l.rep.set("sqlish.load_snapshot_us", median(loadUS), "us", len(loadUS))

	var sc sqlish.PointScratch
	i := 0
	var scoreErr error
	l.rep.set("sqlish.point_score_ns", l.perCall("sqlish.point_score", pointCalls, func() {
		if _, err := sc.Score(snap, l.in.Points[i%numPoints]); err != nil {
			scoreErr = err
		}
		i++
	}), "ns", pointCalls)
	if scoreErr != nil {
		return scoreErr
	}

	gate := serve.NewGate(2, 8)
	l.rep.set("serve.gate_admit_ns", l.perCall("serve.gate_admit", kernelCalls, func() {
		if t, err := gate.Admit(); err == nil {
			t.WaitOrCancel(nil)
			t.Release()
		}
	}), "ns", kernelCalls)

	plane := mgr.Plane()
	hits0, fills0 := plane.Cache().Stats()
	point := make([][]float64, 1)
	scores := make([]float64, 1)
	l.rep.set("serve.plane_predict_ns", l.perCall("serve.plane_predict", pointCalls, func() {
		point[0] = l.in.Points[i%numPoints]
		if _, err := plane.Predict(serveModel, point, scores); err != nil {
			scoreErr = err
		}
		i++
	}), "ns", pointCalls)
	if scoreErr != nil {
		return scoreErr
	}
	hits, fills := plane.Cache().Stats()
	l.rep.set("serve.cache_hit_ratio", float64(hits-hits0)/float64(hits-hits0+fills-fills0), "ratio", pointCalls)
	return nil
}

// wire times one request at a time over loopback (no queueing: syscalls
// and framing only) in both encodings, then reads the shed counters.
func (l *layers) wire(mgr *server.Manager) error {
	srv := server.NewTCPServer(mgr)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() { _ = srv.Serve(lis); close(served) }()
	defer func() { srv.Close(); <-served }()

	for _, mode := range []string{"text", "bin"} {
		cl, err := server.Dial(lis.Addr().String())
		if err != nil {
			return err
		}
		defer cl.Close()
		if mode == "bin" {
			if err := cl.Binary(); err != nil {
				return err
			}
		}
		us := make([]float64, 0, roundTrips)
		point := make([][]float64, 1)
		for i := 0; i < roundTrips; i++ {
			d, err := l.timed("server."+mode+"_roundtrip", func() error {
				var f server.Frame
				var err error
				if mode == "bin" {
					point[0] = l.in.Points[i%numPoints]
					if err = cl.SendBinPredict(uint64(i+1), serveModel, point); err == nil {
						f, err = cl.ReadBinFrame()
					}
				} else if err = cl.SendFrame(uint64(i+1), l.in.PointStmt[i%numPoints]); err == nil {
					f, err = cl.ReadFrame()
				}
				if err == nil && f.Err != "" {
					err = fmt.Errorf("error frame: %s", f.Err)
				}
				return err
			})
			if err != nil {
				return err
			}
			us = append(us, micros(d))
		}
		l.rep.set("server."+mode+"_roundtrip_us", median(us), "us", len(us))
	}
	trainSQL := l.w.trainSQL("", 1, "m")
	l.rep.set("spec.parse_train_us", l.perCall("spec.parse_train", parseCalls, func() {
		_, _ = spec.Parse(trainSQL)
	})/1000, "us", parseCalls)
	l.rep.set("spec.parse_point_us", l.perCall("spec.parse_point", parseCalls, func() {
		_, _ = spec.Parse(l.in.PointStmt[0])
	})/1000, "us", parseCalls)

	sheds := 0.0
	_, models := mgr.Plane().Stats()
	for _, m := range models {
		sheds += float64(m.Sheds)
	}
	l.rep.set("serve.shed_count", sheds, "count", 1)
	return nil
}
