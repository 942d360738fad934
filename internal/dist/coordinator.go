package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"bismarck/internal/engine"
	"bismarck/internal/parallel"
	"bismarck/internal/vector"
	"bismarck/internal/wire"
)

// Busy backoff: consecutive busy rejections one logical call absorbs
// before the executor is treated as lost, and the cap on one backoff
// sleep regardless of the executor's hint.
const (
	maxBusyRetries = 8
	maxBusyWait    = 2 * time.Second
)

// backoff absorbs one busy rejection: it counts it in *sheds and sleeps
// the executor's retry hint (at least 1 ms, at most maxBusyWait). Past
// maxBusyRetries consecutive sheds it resets the count and reports false
// without sleeping — the caller stops waiting on that executor.
func backoff(busy *wire.BusyError, sheds *int) bool {
	if *sheds++; *sheds > maxBusyRetries {
		*sheds = 0
		return false
	}
	time.Sleep(min(time.Duration(max(busy.RetryAfterMS, 1))*time.Millisecond, maxBusyWait))
	return true
}

// execConn is one executor connection: the dialed socket, the binary-mode
// reader, and the request/response scratch. Several remote shards may
// share one executor and the transport is strictly request/response per
// connection, so every round trip serializes on mu — id allocation,
// request build, write, and read all happen under one critical section.
type execConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader

	mu      sync.Mutex
	nextID  uint64
	sendBuf []byte
	recvBuf []byte
	timeout time.Duration
}

// dialExecutor connects to an executor and negotiates binary mode: read
// the banner, send "@bin", read the ack.
func dialExecutor(addr string, timeout time.Duration) (*execConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &execConn{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 1<<16), timeout: timeout}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: executor %s handshake: %w", addr, err)
	}
	return c, nil
}

// handshake consumes the text banner and switches to binary framing.
func (c *execConn) handshake() error {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	defer c.conn.SetDeadline(time.Time{})
	// Banner: zero or more "| " body lines, then "OK".
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == wire.TermOK {
			break
		}
		if msg, ok := strings.CutPrefix(line, wire.TermErr+" "); ok {
			return fmt.Errorf("banner error: %s", msg)
		}
		if !strings.HasPrefix(line, wire.BodyPrefix) {
			return fmt.Errorf("unexpected banner line %q", line)
		}
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", wire.Hello); err != nil {
		return err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return err
	}
	if line = strings.TrimRight(line, "\r\n"); line != wire.HelloOK {
		return fmt.Errorf("binary negotiation failed: got %q, want %q", line, wire.HelloOK)
	}
	return nil
}

func (c *execConn) close() { c.conn.Close() }

// call performs one round trip: under the connection lock it allocates
// the request id, has build encode the frame into the connection's send
// scratch, writes it, reads the response frame, and decodes it into dst
// (the caller's scratch, so decoded values survive the lock dropping).
// Transport faults come back as ordinary errors; executor verdicts as
// *wire.RemoteError, and shed load as *wire.BusyError.
func (c *execConn) call(build func(buf []byte, id uint64) ([]byte, error), dst []float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	req, err := build(c.sendBuf[:0], id)
	if err != nil {
		return nil, err
	}
	c.sendBuf = req[:0]
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	defer c.conn.SetDeadline(time.Time{})
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(c.br, &c.recvBuf)
	if err != nil {
		return nil, err
	}
	gotID, vals, err := wire.DecodeResponse(payload, dst)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("dist: executor %s answered id %d, expected %d", c.addr, gotID, id)
	}
	return vals, nil
}

// ShardTask is everything an executor needs to rebuild one statement's
// task and ordering: the registry name, the fully-resolved parameters
// (a TaskSpec.Snapshot of the coordinator's built task), the order byte,
// and the base seed — shard i seeds its rng with Seed+i, mirroring the
// in-process runners.
type ShardTask struct {
	Name   string
	Params map[string]string
	Order  byte
	Seed   int64
}

// Hooks expose the coordinator's test seams; nil members cost a compare.
type Hooks struct {
	// BeforeStep runs before each remote STEP round trip.
	BeforeStep func(shard, epoch int)
	// AfterStep runs after each remote STEP round trip with its verdict
	// (before any retry or requeue of that shard).
	AfterStep func(shard, epoch int, err error)
}

// executorSlot tracks one executor's health and load under Coordinator.mu.
type executorSlot struct {
	conn   *execConn
	alive  bool
	shards int // shards currently assigned here (requeue balance)
}

// Coordinator owns one statement's distributed run: the partitioned
// table, the executor connections, and the shard→executor assignment.
// Its remote runners plug into parallel.ShardedEpoch, so the epoch loop,
// the row-weighted merge, and the convergence bookkeeping are exactly
// the in-process sharded trainer's.
//
// Fault model: a transport fault (dial, write, read, deadline) marks the
// executor dead and requeues its shards onto the least-loaded survivors,
// re-shipping rows and replaying orderings so the run's result is
// unchanged; a busy rejection backs off by the executor's own
// retry_after_ms hint and retries in place, counting against
// maxBusyRetries before it, too, escalates to requeue. Only an
// application error (unknown task, schema mismatch) or the death of the
// last executor fails the statement.
type Coordinator struct {
	task    ShardTask
	table   *engine.ShardedTable
	rows    []int
	timeout time.Duration
	Hooks   Hooks

	mu    sync.Mutex
	slots []*executorSlot
	owner []int // shard index -> slot index, -1 = unassigned
}

// NewCoordinator dials the executors and scatters the partitioned table:
// each shard goes to the least-loaded live executor (round-robin when
// every dial succeeded), shipped as LOAD + ROWS chunks + SEAL with the
// sealed row count verified. Executors that fail to dial are tolerated
// as long as at least one lives — the same one-dead-node-never-fails-
// the-statement stance the training loop takes. The table must outlive
// the coordinator: shards are re-shipped from it on requeue.
func NewCoordinator(addrs []string, table *engine.ShardedTable, task ShardTask,
	timeout time.Duration) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no executor addresses")
	}
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	co := &Coordinator{
		task: task, table: table, rows: table.RowCounts(), timeout: timeout,
		owner: make([]int, table.NumShards()),
	}
	var dialErrs []string
	for _, addr := range addrs {
		conn, err := dialExecutor(addr, timeout)
		if err != nil {
			dialErrs = append(dialErrs, err.Error())
			co.slots = append(co.slots, &executorSlot{alive: false})
			continue
		}
		co.slots = append(co.slots, &executorSlot{conn: conn, alive: true})
	}
	if len(dialErrs) == len(addrs) {
		return nil, fmt.Errorf("dist: no executor reachable: %s", strings.Join(dialErrs, "; "))
	}
	for i := range co.owner {
		co.owner[i] = -1
	}
	for i := 0; i < table.NumShards(); i++ {
		if err := co.ship(i); err != nil {
			co.Close()
			return nil, err
		}
	}
	return co, nil
}

// Close tears down every executor connection. Shard state on the
// executors is per-connection and dies with them.
func (co *Coordinator) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, s := range co.slots {
		if s.conn != nil {
			s.conn.close()
		}
		s.alive = false
	}
}

// Runners builds one parallel.ShardRunner per shard, backed by this
// coordinator.
func (co *Coordinator) Runners() []parallel.ShardRunner {
	out := make([]parallel.ShardRunner, co.table.NumShards())
	for i := range out {
		out[i] = &remoteShard{co: co, idx: i, rows: co.rows[i], stepped: -1}
	}
	return out
}

// markDead retires a slot: its connection closes and every shard it
// owned becomes unassigned, to be re-shipped on demand by whichever
// worker needs it next.
func (co *Coordinator) markDead(slot int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	s := co.slots[slot]
	if !s.alive {
		return
	}
	s.alive = false
	if s.conn != nil {
		s.conn.close()
	}
	for i, o := range co.owner {
		if o == slot {
			co.owner[i] = -1
		}
	}
}

// ownerConn resolves a shard's current executor, shipping the shard to a
// survivor first when it is unassigned (the requeue path).
func (co *Coordinator) ownerConn(shard int) (int, *execConn, error) {
	for {
		co.mu.Lock()
		if o := co.owner[shard]; o >= 0 && co.slots[o].alive {
			conn := co.slots[o].conn
			co.mu.Unlock()
			return o, conn, nil
		}
		co.mu.Unlock()
		if err := co.ship(shard); err != nil {
			return -1, nil, err
		}
	}
}

// ship assigns the shard to the least-loaded live executor and ships its
// rows (LOAD, ROWS chunks, SEAL). A transport fault during shipping
// marks that executor dead and tries the next survivor; a busy rejection
// frees the partial shard state, backs off by the executor's hint, and
// retries — counted against maxBusyRetries before the executor is
// treated as lost. Shipping fails only when no executor remains or one
// rejects the shard outright (unknown task, schema mismatch).
func (co *Coordinator) ship(shard int) error {
	sheds := 0
	for {
		// The least-loaded live slot.
		co.mu.Lock()
		slot, load := -1, int(^uint(0)>>1)
		for i, s := range co.slots {
			if s.alive && s.shards < load {
				slot, load = i, s.shards
			}
		}
		if slot < 0 {
			co.mu.Unlock()
			return fmt.Errorf("dist: no live executor left for shard %d", shard)
		}
		conn := co.slots[slot].conn
		co.mu.Unlock()

		err := co.shipTo(conn, shard)
		if err == nil {
			co.mu.Lock()
			// The slot may have died between shipTo returning and here; if
			// so the shard's state died with the connection — loop and ship
			// again rather than record a dead owner.
			if co.slots[slot].alive {
				co.owner[shard] = slot
				co.slots[slot].shards++
				co.mu.Unlock()
				return nil
			}
			co.mu.Unlock()
			continue
		}
		var busy *wire.BusyError
		if errors.As(err, &busy) {
			// Shed load mid-ship: the sequence may have stopped after LOAD
			// already registered the shard, so drop the partial state before
			// the retry re-LOADs (a transport fault here retires the slot —
			// the state dies with the connection anyway).
			if ferr := co.freeShard(conn, shard); ferr != nil || !backoff(busy, &sheds) {
				co.markDead(slot)
			}
			continue
		}
		var rerr *wire.RemoteError
		if errors.As(err, &rerr) {
			// The executor is alive and said no: deterministic, fatal.
			return fmt.Errorf("dist: executor %s rejected shard %d: %w", conn.addr, shard, rerr)
		}
		co.markDead(slot)
	}
}

// freeShard drops one shard's state from an executor, absorbing busy
// shedding with bounded backoff. Application verdicts ("no shard N" when
// the failed ship never got past admission) mean there is nothing to
// free; only a transport fault is reported.
func (co *Coordinator) freeShard(c *execConn, shard int) error {
	var scratch [1]float64
	sheds := 0
	for {
		_, err := c.call(func(buf []byte, id uint64) ([]byte, error) {
			return AppendShardOnly(buf, OpShardFree, id, uint32(shard))
		}, scratch[:0])
		if err == nil {
			return nil
		}
		var busy *wire.BusyError
		if errors.As(err, &busy) {
			if backoff(busy, &sheds) {
				continue
			}
			return nil
		}
		var rerr *wire.RemoteError
		if !errors.As(err, &rerr) {
			return err
		}
		return nil
	}
}

// shipTo performs the LOAD → ROWS* → SEAL sequence for one shard on one
// connection, verifying the executor sealed exactly the shipped rows.
func (co *Coordinator) shipTo(c *execConn, shard int) error {
	var scratch [2]float64
	t := co.task
	if _, err := c.call(func(buf []byte, id uint64) ([]byte, error) {
		return AppendLoad(buf, id, uint32(shard), t.Order, t.Seed+int64(shard),
			t.Name, t.Params, co.table.Schema)
	}, scratch[:0]); err != nil {
		return err
	}
	err := co.table.ShardChunks(shard, MaxRowChunkBytes, func(records [][]byte) error {
		_, err := c.call(func(buf []byte, id uint64) ([]byte, error) {
			return AppendRows(buf, id, uint32(shard), records)
		}, scratch[:0])
		return err
	})
	if err != nil {
		return err
	}
	vals, err := c.call(func(buf []byte, id uint64) ([]byte, error) {
		return AppendShardOnly(buf, OpShardSeal, id, uint32(shard))
	}, scratch[:0])
	if err != nil {
		return err
	}
	if len(vals) != 1 || int(vals[0]) != co.rows[shard] {
		return fmt.Errorf("dist: executor %s sealed shard %d with %v rows, shipped %d",
			c.addr, shard, vals, co.rows[shard])
	}
	return nil
}

// remoteShard is the parallel.ShardRunner over one remote shard. Its
// value scratch is private to the shard's epoch worker goroutine.
type remoteShard struct {
	co   *Coordinator
	idx  int
	rows int
	vals []float64
	// stepped is the newest epoch this shard has completed (-1 before the
	// first). LOSS frames carry it so a mid-loss-pass requeue replays the
	// ordering stream before summing — see parallel.Shard.CatchUp.
	stepped int
}

// Rows implements parallel.ShardRunner.
func (r *remoteShard) Rows() int { return r.rows }

// RunEpoch implements parallel.ShardRunner: one remote STEP round trip
// with backoff, retry, and requeue per the coordinator's fault model.
func (r *remoteShard) RunEpoch(epoch int, w vector.Dense, alpha float64, replica vector.Dense) error {
	vals, err := r.call(epoch, func(buf []byte, id uint64) ([]byte, error) {
		return AppendStep(buf, id, uint32(r.idx), epoch, alpha, w)
	})
	if err != nil {
		return err
	}
	if len(vals) != len(replica)+1 {
		return fmt.Errorf("dist: shard %d STEP answered %d values, want %d", r.idx, len(vals), len(replica)+1)
	}
	if int(vals[0]) != r.rows {
		return fmt.Errorf("dist: shard %d STEP reports %d rows, shipped %d", r.idx, int(vals[0]), r.rows)
	}
	copy(replica, vals[1:])
	r.stepped = epoch
	return nil
}

// LossAt implements parallel.ShardRunner.
func (r *remoteShard) LossAt(w vector.Dense) (float64, error) {
	vals, err := r.call(-1, func(buf []byte, id uint64) ([]byte, error) {
		return AppendLoss(buf, id, uint32(r.idx), r.stepped, w)
	})
	if err != nil {
		return 0, err
	}
	if len(vals) != 1 {
		return 0, fmt.Errorf("dist: shard %d LOSS answered %d values, want 1", r.idx, len(vals))
	}
	return vals[0], nil
}

// call drives one logical round trip to wherever the shard currently
// lives, looping over busy backoffs and executor loss. epoch >= 0 marks
// a STEP (for the hooks); -1 a LOSS pass.
func (r *remoteShard) call(epoch int, build func(buf []byte, id uint64) ([]byte, error)) ([]float64, error) {
	sheds := 0
	for {
		slot, conn, err := r.co.ownerConn(r.idx)
		if err != nil {
			return nil, err
		}
		if epoch >= 0 && r.co.Hooks.BeforeStep != nil {
			r.co.Hooks.BeforeStep(r.idx, epoch)
		}
		vals, err := conn.call(build, r.vals[:0])
		if epoch >= 0 && r.co.Hooks.AfterStep != nil {
			r.co.Hooks.AfterStep(r.idx, epoch, err)
		}
		if err == nil {
			r.vals = vals
			return vals, nil
		}
		var busy *wire.BusyError
		if errors.As(err, &busy) {
			if !backoff(busy, &sheds) {
				// Persistently saturated: treat like a lost node so the
				// shard can drain somewhere with headroom.
				r.co.markDead(slot)
			}
			continue
		}
		var rerr *wire.RemoteError
		if errors.As(err, &rerr) {
			return nil, fmt.Errorf("dist: shard %d on executor %s: %w", r.idx, conn.addr, rerr)
		}
		// Transport fault: the executor is lost; requeue via ownerConn.
		r.co.markDead(slot)
	}
}
