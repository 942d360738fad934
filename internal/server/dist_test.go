package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/dist"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
	"bismarck/internal/wire"
)

// These tests drive the distributed training plane end to end against
// real TCP executors (in-process TCPServers in -executor shape): the
// handshake, the shard shipping, the per-epoch STEP round trips, and the
// lost-executor requeue path. Because they dial the genuine server, they
// also pin the handshake and busy-rejection tokens the dist package
// duplicates (it cannot import this package) — a drift in either set
// fails the handshake or the backoff parsing here.

// trackingListener records accepted connections so a test can sever them
// at an exact protocol point — the deterministic stand-in for an
// executor process dying mid-run.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// execNode is one in-process executor daemon. kill severs every accepted
// connection exactly once — from the coordinator's point of view the
// node is gone mid-conversation, like a SIGKILLed process.
type execNode struct {
	addr   string
	m      *Manager
	srv    *TCPServer
	kill   func()
	killed atomic.Bool
}

// startExecNode starts an executor-shaped server (in-memory catalog) on
// a loopback port. hooks, when non-nil, builds the executor-side crash
// instrumentation with the node in scope — set before Serve, so handler
// goroutines observe it without racing.
func startExecNode(t *testing.T, hooks func(n *execNode) dist.ExecutorHooks) *execNode {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &trackingListener{Listener: raw}
	m := NewManager(engine.NewCatalog(), Options{})
	srv := NewTCPServer(m)
	servers.Store(m, srv)
	n := &execNode{addr: raw.Addr().String(), m: m, srv: srv}
	var once sync.Once
	n.kill = func() {
		once.Do(func() {
			n.killed.Store(true)
			lis.sever()
		})
	}
	if hooks != nil {
		srv.execHooks = hooks(n)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
		m.Drain()
	})
	return n
}

// drained asserts the node is quiescent — no admission or name lock left
// behind; quiescent closes the server first, which waits for the
// in-flight connection handlers, so a mid-scan victim has released its
// slot — and holds no lingering executor connection.
func (n *execNode) drained(t *testing.T, name string) {
	t.Helper()
	quiescent(t, n.m)
	if c := n.m.execConns.Load(); c != 0 {
		t.Errorf("%s: %d executor connections still registered", name, c)
	}
}

// TestDistributedTrainMatchesInProcessSharded is the convergence-parity
// matrix over the full statement path: the same TRAIN with shards=K run
// in-process and with executors=... must produce bit-identical models —
// the distributed runners slot into the same ShardedEpoch merge, ship
// the same rows, and replay the same per-shard rng streams.
func TestDistributedTrainMatchesInProcessSharded(t *testing.T) {
	a := startExecNode(t, nil)
	b := startExecNode(t, nil)
	m := NewManager(engine.NewCatalog(), Options{Workers: 2})
	seedPapers(t, m, 240)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		task string
		k    int
	}{{"lr", 2}, {"lr", 4}, {"svm", 2}, {"svm", 4}} {
		name := fmt.Sprintf("%s_k%d", tc.task, tc.k)
		if _, err := c.Exec(fmt.Sprintf(
			"SELECT vec, label FROM papers TO TRAIN %s WITH epochs=3, shards=%d, seed=7 INTO local_%s",
			tc.task, tc.k, name)); err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		if _, err := c.Exec(fmt.Sprintf(
			"SELECT vec, label FROM papers TO TRAIN %s WITH epochs=3, shards=%d, seed=7, executors='%s,%s' INTO dist_%s",
			tc.task, tc.k, a.addr, b.addr, name)); err != nil {
			t.Fatalf("%s distributed: %v", name, err)
		}
		local := readModel(t, m.Catalog(), "local_"+name)
		remote := readModel(t, m.Catalog(), "dist_"+name)
		if !sameModel(local, remote) {
			t.Errorf("%s: distributed model diverges from the in-process sharded model", name)
		}
	}

	// No explicit shards knob: the adaptive K still trains.
	if _, err := c.Exec(fmt.Sprintf(
		"SELECT vec, label FROM papers TO TRAIN lr WITH epochs=2, seed=7, executors='%s,%s' INTO dist_adaptive",
		a.addr, b.addr)); err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	if w := readModel(t, m.Catalog(), "dist_adaptive"); len(w) == 0 {
		t.Error("adaptive distributed model is empty")
	}

	// SHOW SERVING on an executor reports its executor-plane counters,
	// back to zero connections once the coordinators hung up.
	ec, err := Dial(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := ec.Exec("SHOW SERVING")
		if err != nil {
			t.Fatalf("SHOW SERVING on executor: %v", err)
		}
		if !strings.Contains(body, "executor conns=") {
			t.Fatalf("SHOW SERVING misses the executor line: %q", body)
		}
		if strings.Contains(body, "executor conns=0") {
			break
		}
		// The coordinator's sockets are closed, but the handler goroutines
		// may not have observed EOF yet.
		if time.Now().After(deadline) {
			t.Fatalf("executor connections never drained: %q", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	a.drained(t, "executor a")
	b.drained(t, "executor b")
}

// distLRFixture builds the crash-matrix workload: a Forest table, the
// registry LR task over its 54 features, and the snapshot params the
// executors rebuild it from.
func distLRFixture(t *testing.T, rows int) (*engine.Table, *tasks.LR, map[string]string) {
	t.Helper()
	tbl := data.Forest(rows, 5)
	ts, err := spec.Lookup("lr")
	if err != nil {
		t.Fatal(err)
	}
	task := &tasks.LR{D: 54}
	return tbl, task, ts.Snapshot(task)
}

// distRun is the WITH executors=... plan exactly as spec.Train assembles
// it — partition, scatter through a Coordinator, hand the sharded epoch
// over the remote runners to core.Drive — with the coordinator's Hooks
// exposed, which a statement cannot reach. The fixture is always the
// registry "lr" task, shuffle_once, DefaultStep(0.1).
type distRun struct {
	Executors  []string
	TaskParams map[string]string
	Task       core.Task
	MaxEpochs  int
	Shards     int
	Seed       int64
	Hooks      dist.Hooks
}

func (tr *distRun) Run(tbl *engine.Table) (*core.Result, error) {
	sharded, err := engine.ShardTable(tbl, tr.Shards, engine.ShardRoundRobin)
	if err != nil {
		return nil, err
	}
	defer sharded.Close()
	co, err := dist.NewCoordinator(tr.Executors, sharded, dist.ShardTask{Name: "lr",
		Params: tr.TaskParams, Order: dist.OrderByte("shuffle_once"), Seed: tr.Seed}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	co.Hooks = tr.Hooks
	se, err := parallel.NewShardedEpochRunners(tr.Task, co.Runners())
	if err != nil {
		return nil, err
	}
	return core.Drive(se, core.LoopConfig{Task: tr.Task, Step: core.DefaultStep(0.1),
		MaxEpochs: tr.MaxEpochs, Seed: tr.Seed})
}

// shardedRef is the in-process sharded run the distributed arms must
// reproduce bit for bit.
func shardedRef(t *testing.T, tbl *engine.Table, task core.Task, epochs, shards int, seed int64) *core.Result {
	t.Helper()
	sharded, err := engine.ShardTable(tbl, shards, engine.ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	se, err := parallel.NewShardedEpoch(task, sharded, ordering.ShuffleOnce{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Drive(se, core.LoopConfig{Task: task, Step: core.DefaultStep(0.1),
		MaxEpochs: epochs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestDistributedExecutorLossCrashMatrix kills one of two executors at
// each point of the STEP protocol — before the request, mid-scan on the
// executor, and after a successful reply — and requires, for every
// point: the statement succeeds, the final model is bit-identical to the
// in-process sharded run (requeued shards replay their ordering
// streams), the victim's death was actually observed as a transport
// fault, and neither node leaks an admission ticket.
func TestDistributedExecutorLossCrashMatrix(t *testing.T) {
	const (
		shards = 4
		epochs = 4
		seed   = int64(3)
	)
	tbl, task, params := distLRFixture(t, 200)
	ref := shardedRef(t, tbl, task, epochs, shards, seed)

	type arm struct {
		name string
		// victimHooks builds the executor-side kill (mid-step); nil for
		// coordinator-side arms.
		victimHooks func(n *execNode) dist.ExecutorHooks
		// coordHooks installs the coordinator-side kill; may be nil.
		coordHooks func(victim *execNode, tr *distRun)
	}
	arms := []arm{
		{
			name: "before-step",
			coordHooks: func(victim *execNode, tr *distRun) {
				tr.Hooks.BeforeStep = func(shard, epoch int) {
					if epoch == 1 {
						victim.kill()
					}
				}
			},
		},
		{
			name: "mid-step",
			victimHooks: func(n *execNode) dist.ExecutorHooks {
				return dist.ExecutorHooks{MidStep: func(shard uint32, epoch int) {
					if epoch == 1 {
						n.kill()
					}
				}}
			},
		},
		{
			name: "after-reply",
			coordHooks: func(victim *execNode, tr *distRun) {
				tr.Hooks.AfterStep = func(shard, epoch int, err error) {
					if epoch == 1 && err == nil {
						victim.kill()
					}
				}
			},
		},
	}

	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			victim := startExecNode(t, a.victimHooks)
			survivor := startExecNode(t, nil)

			tr := &distRun{
				Executors:  []string{victim.addr, survivor.addr},
				TaskParams: params,
				Task:       task,
				MaxEpochs:  epochs,
				Shards:     shards,
				Seed:       seed,
			}
			if a.coordHooks != nil {
				a.coordHooks(victim, tr)
			}
			var faults atomic.Int32
			after := tr.Hooks.AfterStep
			tr.Hooks.AfterStep = func(shard, epoch int, err error) {
				if err != nil {
					faults.Add(1)
				}
				if after != nil {
					after(shard, epoch, err)
				}
			}

			res, err := tr.Run(tbl)
			if err != nil {
				t.Fatalf("losing one executor failed the statement: %v", err)
			}
			if !victim.killed.Load() {
				t.Fatal("kill point never fired — the matrix arm tested nothing")
			}
			if d := vector.Dist2(res.Model, ref.Model); d != 0 {
				t.Errorf("model after requeue diverges from the in-process run by %g", d)
			}
			if res.Epochs != ref.Epochs {
				t.Errorf("ran %d epochs, in-process ran %d", res.Epochs, ref.Epochs)
			}
			for i := range ref.Losses {
				if i < len(res.Losses) && res.Losses[i] != ref.Losses[i] {
					t.Errorf("epoch %d loss %g, in-process %g", i, res.Losses[i], ref.Losses[i])
				}
			}
			// The before/mid arms sever during epoch 1's STEPs, so a STEP
			// must have failed; after-reply may race its kill into the loss
			// pass instead (requeued there, no STEP hook), so only the
			// model parity above proves the requeue for it.
			if a.name != "after-reply" && faults.Load() == 0 {
				t.Error("no STEP observed the executor loss")
			}

			victim.drained(t, "victim")
			survivor.drained(t, "survivor")
		})
	}
}

// TestDistributedBusyExecutorBacksOff pins the shed-load contract end to
// end: an executor whose gate sheds two admissions with a real
// *wire.BusyError (the exact rendering the daemon sends) must slow the
// coordinator down, never fail it — and the result must still be
// bit-identical to the in-process run. Admission #3 is shard 0's SEAL
// (shipping is sequential, so that index is deterministic), exercising
// the free-partial-state-and-reship path; #17 lands inside the epoch
// loop, exercising the STEP/LOSS hint backoff.
func TestDistributedBusyExecutorBacksOff(t *testing.T) {
	tbl, task, params := distLRFixture(t, 120)
	gate := &busyAtGate{shedAt: map[int64]bool{3: true, 17: true}}
	addr := startFakeExecutor(t, gate)

	tr := &distRun{
		Executors:  []string{addr},
		TaskParams: params,
		Task:       task,
		MaxEpochs:  3,
		Shards:     2,
		Seed:       5,
	}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatalf("busy shedding failed the statement: %v", err)
	}
	if gate.rejections.Load() == 0 {
		t.Fatal("gate never shed — the backoff path was not exercised")
	}
	ref := shardedRef(t, tbl, task, 3, 2, 5)
	if d := vector.Dist2(res.Model, ref.Model); d != 0 {
		t.Errorf("model under busy shedding diverges from the in-process run by %g", d)
	}
}

// busyAtGate sheds the admissions whose 1-based index is in shedAt with a
// genuine *wire.BusyError — so the coordinator gets the same BUSY frame
// the production gate's rejection produces. shedAt is read-only after construction.
type busyAtGate struct {
	shedAt     map[int64]bool
	n          atomic.Int64
	rejections atomic.Int64
}

func (g *busyAtGate) Do(fn func()) (bool, error) {
	if g.shedAt[g.n.Add(1)] {
		g.rejections.Add(1)
		return true, &wire.BusyError{RetryAfterMS: 1}
	}
	fn()
	return true, nil
}

// startFakeExecutor serves the executor wire protocol by hand — banner,
// "@bin" handshake, then length-prefixed frames into a dist.Executor —
// with an arbitrary admission gate, which the real server shape does not
// allow injecting.
func startFakeExecutor(t *testing.T, gate dist.Gate) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := io.WriteString(conn, "| fake executor\nOK\n"); err != nil {
					return
				}
				line, err := br.ReadString('\n')
				if err != nil || strings.TrimSpace(line) != BinHello {
					return
				}
				if _, err := io.WriteString(conn, BinHelloOK+"\n"); err != nil {
					return
				}
				ex := dist.NewExecutor(buildRegistryTask, gate)
				defer ex.Close()
				var payload []byte
				for {
					p, err := wire.ReadFrame(br, &payload)
					if err != nil {
						return
					}
					resp, ok := ex.Handle(p)
					if !ok {
						return
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestClientConcurrentSendFrameRace is the write-mutex regression test:
// many goroutines pipelining binary predicts on one Client share its
// encode buffer and socket, which raced (and interleaved frames) before
// Send/SendFrame/SendBinPredict serialized on wmu. Run under -race.
func TestClientConcurrentSendFrameRace(t *testing.T) {
	m := NewManager(engine.NewCatalog(), Options{})
	seedSignSets(t, m)
	addr := startTCP(t, m)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(fmt.Sprintf(trainSignFmt, "pos", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Binary(); err != nil {
		t.Fatal(err)
	}

	const senders, perSender = 6, 30
	var wg sync.WaitGroup
	sendErrs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(g*1000 + i + 1)
				if err := c.SendBinPredict(id, "m", [][]float64{{1, 1}}); err != nil {
					sendErrs <- fmt.Errorf("sender %d: %w", g, err)
					return
				}
			}
		}(g)
	}

	seen := make(map[uint64]bool, senders*perSender)
	for i := 0; i < senders*perSender; i++ {
		f, err := c.ReadBinFrame()
		if err != nil {
			t.Fatalf("frame %d: transport desync: %v", i, err)
		}
		if f.Err != "" {
			t.Fatalf("frame id %d: %s", f.ID, f.Err)
		}
		if seen[f.ID] {
			t.Fatalf("frame id %d answered twice", f.ID)
		}
		seen[f.ID] = true
	}
	wg.Wait()
	close(sendErrs)
	for err := range sendErrs {
		t.Error(err)
	}
	if len(seen) != senders*perSender {
		t.Fatalf("answered %d distinct frames, sent %d", len(seen), senders*perSender)
	}
}
