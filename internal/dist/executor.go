package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/vector"
	"bismarck/internal/wire"
)

// BuildTask reconstructs a training task from its registry name and
// fully-resolved parameters — no data view, exactly the model-snapshot
// rebuild path. The server injects an implementation backed by the spec
// registry; dist stays below the statement layer.
type BuildTask func(name string, params map[string]string) (core.Task, error)

// Gate is the executor's admission hook, wrapped around the server's
// serving gate. Do may block while queued for a slot, then runs fn
// holding it and releases it before returning. It reports ok=false when
// the server is shutting down (fn did not run: tear the connection down,
// answer nothing), and an error — typically a *wire.BusyError, which
// Handle answers with a BUSY frame — when the request is shed.
type Gate interface {
	Do(fn func()) (ok bool, err error)
}

// nopGate admits everything (standalone executors without a gate).
type nopGate struct{}

func (nopGate) Do(fn func()) (bool, error) { fn(); return true, nil }

// ExecutorHooks expose test seams inside op handling. Nil hooks cost one
// pointer compare.
type ExecutorHooks struct {
	// MidStep runs after a STEP request is admitted and decoded but
	// before the epoch scan — the "mid STEP" point of the crash matrix.
	MidStep func(shard uint32, epoch int)
}

// maxExecutorBytes caps the total encoded row bytes one connection may
// ship: the executor is a network service and a hostile coordinator must
// not OOM it with an unbounded table.
const maxExecutorBytes = 256 << 20

// execShard is what the wire needs of one loaded shard: the shard heap
// and the scratch that decodes every shipped record under the declared
// schema, the LOAD parameters, the accepted row count, and — once SEAL has
// flushed the heap — the shard runner every STEP and LOSS calls.
type execShard struct {
	tbl     *engine.Table
	scratch *engine.TupleScratch
	task    core.Task
	order   core.OrderStrategy
	seed    int64
	rows    int
	runner  *parallel.Shard // nil until SEAL
}

// Executor is one connection's shard-hosting state machine. It is
// single-goroutine by construction — the server's binary loop is
// synchronous — so no locking happens here; the admission gate is the
// only shared resource.
type Executor struct {
	build BuildTask
	gate  Gate
	Hooks ExecutorHooks

	shards map[uint32]*execShard
	bytes  int64 // encoded row bytes accepted so far (maxExecutorBytes cap)
	out    []byte
	vals   []float64
	w      vector.Dense

	// The request Handle admits and its result, passed through fields so
	// the gate runs a dispatch — and dispatch a route — bound once in
	// NewExecutor: a steady-state frame builds no closure.
	op         byte
	body       []byte
	res        []float64
	resErr     error
	dispatchFn func()
	routeFn    func() error
}

// NewExecutor builds a connection's executor. gate may be nil (admit
// everything); build must be able to resolve every task name the
// coordinator will ship.
func NewExecutor(build BuildTask, gate Gate) *Executor {
	if gate == nil {
		gate = nopGate{}
	}
	ex := &Executor{build: build, gate: gate, shards: make(map[uint32]*execShard)}
	ex.dispatchFn, ex.routeFn = ex.dispatch, ex.routeReq
	return ex
}

// Close releases every shard heap. The server calls it when the
// connection dies — shard state never outlives its TCP session.
func (ex *Executor) Close() {
	for k, sh := range ex.shards {
		sh.tbl.Close()
		delete(ex.shards, k)
	}
}

// Handle serves one executor request payload (opcode already verified to
// be an executor op by the caller), leaving the response frame in the
// returned buffer, which is reused across calls. ok=false means the
// server is shutting down and the connection should be torn down without
// a response.
func (ex *Executor) Handle(payload []byte) (resp []byte, ok bool) {
	op, id, body, err := wire.ParseHeader(payload)
	if err != nil {
		// Id 0 is the unattributable-error id, as in the predict frames.
		return wire.AppendErr(ex.out[:0], 0, "dist: executor frame truncated before header"), true
	}
	ex.op, ex.body = op, body
	ok, err = ex.gate.Do(ex.dispatchFn)
	if !ok {
		return nil, false
	}
	if err == nil {
		err = ex.resErr
	}
	if err != nil {
		// A shed admission answers BUSY with the gate's retry hint.
		ex.out = wire.AppendError(ex.out[:0], id, err)
	} else {
		ex.out = wire.AppendOK(ex.out[:0], id, ex.res)
	}
	return ex.out, true
}

// dispatch runs the admitted request in ex.op / ex.body, leaving its reply
// values and error in ex.res / ex.resErr. It runs the request under
// engine.Contain: a shard whose task panics answers an ERR frame, which the
// coordinator reports as that shard's error, and the executor lives on.
func (ex *Executor) dispatch() {
	ex.resErr = engine.Contain(ex.routeFn)
}

func (ex *Executor) routeReq() (err error) {
	ex.res, err = ex.route(ex.op, ex.body)
	return err
}

func (ex *Executor) route(op byte, body []byte) ([]float64, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("dist: executor frame truncated before shard id")
	}
	shard := binary.LittleEndian.Uint32(body)
	body = body[4:]
	switch op {
	case OpShardLoad:
		return nil, ex.load(shard, body)
	case OpShardRows:
		return nil, ex.rows(shard, body)
	case OpShardSeal:
		return ex.seal(shard)
	case OpShardStep:
		return ex.step(shard, body)
	case OpShardLoss:
		return ex.lossAt(shard, body)
	case OpShardFree:
		sh, ok := ex.shards[shard]
		if !ok {
			return nil, fmt.Errorf("dist: executor has no shard %d", shard)
		}
		sh.tbl.Close()
		delete(ex.shards, shard)
		return nil, nil
	}
	return nil, fmt.Errorf("dist: unknown executor opcode %d", op)
}

// load handles SHARD_LOAD: declare the shard, rebuild its task from the
// shipped name+params, and stand up an empty shard heap to receive rows.
func (ex *Executor) load(shard uint32, body []byte) error {
	if _, dup := ex.shards[shard]; dup {
		return fmt.Errorf("dist: shard %d already loaded on this connection", shard)
	}
	if len(ex.shards) >= 1024 {
		return fmt.Errorf("dist: connection shard limit reached")
	}
	if len(body) < 1+8 {
		return fmt.Errorf("dist: SHARD_LOAD frame truncated")
	}
	orderByte := body[0]
	seed := int64(binary.LittleEndian.Uint64(body[1:9]))
	body = body[9:]
	taskName, body, err := wire.U16Str(body, "task name", maxTaskNameLen)
	if err != nil {
		return err
	}
	if len(body) < 2 {
		return fmt.Errorf("dist: SHARD_LOAD frame truncated before param count")
	}
	npairs := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if npairs > maxParamPairs {
		return fmt.Errorf("dist: %d task params exceed the limit of %d", npairs, maxParamPairs)
	}
	params := make(map[string]string, npairs)
	for i := 0; i < npairs; i++ {
		var k, v []byte
		if k, body, err = wire.U16Str(body, "param key", maxParamLen); err != nil {
			return err
		}
		if v, body, err = wire.U16Str(body, "param value", maxParamLen); err != nil {
			return err
		}
		params[string(k)] = string(v)
	}
	if len(body) < 2 {
		return fmt.Errorf("dist: SHARD_LOAD frame truncated before schema")
	}
	ncols := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if ncols == 0 || ncols > maxSchemaCols {
		return fmt.Errorf("dist: schema of %d columns out of range", ncols)
	}
	schema := make(engine.Schema, ncols)
	for i := 0; i < ncols; i++ {
		if len(body) < 1 {
			return fmt.Errorf("dist: SHARD_LOAD frame truncated inside schema")
		}
		typ := engine.Type(body[0])
		body = body[1:]
		if typ < engine.TInt64 || typ > engine.TInt32Vec {
			return fmt.Errorf("dist: schema column %d has unknown type tag %d", i, typ)
		}
		var name []byte
		if name, body, err = wire.U16Str(body, "column name", maxColNameLen); err != nil {
			return err
		}
		if len(name) == 0 {
			return fmt.Errorf("dist: schema column %d has an empty name", i)
		}
		schema[i] = engine.Column{Name: string(name), Type: typ}
	}
	if len(body) != 0 {
		return fmt.Errorf("dist: SHARD_LOAD frame has %d trailing bytes", len(body))
	}
	task, err := ex.build(string(taskName), params)
	if err != nil {
		return fmt.Errorf("dist: rebuilding task %q: %w", taskName, err)
	}
	if task.Dim() > MaxWireDim {
		return fmt.Errorf("dist: task dimension %d exceeds the wire limit %d", task.Dim(), MaxWireDim)
	}
	var order core.OrderStrategy
	switch orderByte {
	case OrderAsStored:
		order = core.NoOrder{}
	case OrderShuffleOnce:
		order = ordering.ShuffleOnce{}
	case OrderShuffleAlways:
		order = ordering.ShuffleAlways{}
	case OrderClustered:
		order = ordering.Clustered{}
	default:
		return fmt.Errorf("dist: unknown order byte %d", orderByte)
	}
	ex.shards[shard] = &execShard{
		tbl:     engine.NewMemTable(fmt.Sprintf("__exec_shard%d", shard), schema),
		scratch: engine.NewTupleScratch(schema),
		task:    task,
		order:   order,
		seed:    seed,
	}
	return nil
}

// rows handles SHARD_ROWS: decode each shipped record against the
// shard's schema and insert it into the shard heap.
func (ex *Executor) rows(shard uint32, body []byte) error {
	sh, ok := ex.shards[shard]
	if !ok {
		return fmt.Errorf("dist: executor has no shard %d", shard)
	}
	if sh.runner != nil {
		return fmt.Errorf("dist: shard %d is sealed — no more rows", shard)
	}
	if len(body) < 4 {
		return fmt.Errorf("dist: SHARD_ROWS frame truncated before record count")
	}
	nrecs := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if nrecs == 0 {
		return fmt.Errorf("dist: SHARD_ROWS frame with zero records")
	}
	for i := 0; i < nrecs; i++ {
		if len(body) < 4 {
			return fmt.Errorf("dist: SHARD_ROWS frame truncated before record %d", i)
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n == 0 || n > len(body) {
			return fmt.Errorf("dist: SHARD_ROWS record %d length %d out of range", i, n)
		}
		if ex.bytes += int64(n); ex.bytes > maxExecutorBytes {
			return fmt.Errorf("dist: connection exceeded the %d-byte shard budget", maxExecutorBytes)
		}
		tp, err := engine.DecodeTupleInto(body[:n], sh.scratch)
		if err != nil {
			return fmt.Errorf("dist: record %d: %w", i, err)
		}
		if err := sh.tbl.Insert(tp); err != nil {
			return err
		}
		sh.rows++
		body = body[n:]
	}
	if len(body) != 0 {
		return fmt.Errorf("dist: SHARD_ROWS frame has %d trailing bytes", len(body))
	}
	return nil
}

// seal handles SHARD_SEAL: flush the shard heap and build its runner.
// Replies the accepted row count so the coordinator can verify nothing was
// lost in transit.
func (ex *Executor) seal(shard uint32) ([]float64, error) {
	sh, ok := ex.shards[shard]
	if !ok {
		return nil, fmt.Errorf("dist: executor has no shard %d", shard)
	}
	if sh.runner != nil {
		return nil, fmt.Errorf("dist: shard %d already sealed", shard)
	}
	if err := sh.tbl.Flush(); err != nil {
		return nil, err
	}
	runner, err := parallel.NewShard(sh.task, sh.tbl, sh.order, sh.seed)
	if err != nil {
		return nil, err
	}
	sh.runner = runner
	ex.vals = append(ex.vals[:0], float64(sh.rows))
	return ex.vals, nil
}

// sealed looks up a shard that STEP or LOSS may run on.
func (ex *Executor) sealed(shard uint32, op string) (*execShard, error) {
	sh, ok := ex.shards[shard]
	if !ok {
		return nil, fmt.Errorf("dist: executor has no shard %d", shard)
	}
	if sh.runner == nil {
		return nil, fmt.Errorf("dist: shard %d not sealed — %s before SEAL", shard, op)
	}
	return sh, nil
}

// step handles SHARD_STEP: one epoch of gradient steps from the shipped
// model — the runner first replays any orderings this shard missed — and
// the reply [rows, w...], whose model tail is the runner's replica.
func (ex *Executor) step(shard uint32, body []byte) ([]float64, error) {
	sh, err := ex.sealed(shard, "STEP")
	if err != nil {
		return nil, err
	}
	if len(body) < 4+8+2 {
		return nil, fmt.Errorf("dist: SHARD_STEP frame truncated")
	}
	epoch := int(binary.LittleEndian.Uint32(body))
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(body[4:12]))
	w, err := ex.decodeModel(body[12:], sh)
	if err != nil {
		return nil, err
	}
	if epoch > maxEpoch {
		return nil, fmt.Errorf("dist: epoch %d out of range", epoch)
	}
	if ex.Hooks.MidStep != nil {
		ex.Hooks.MidStep(shard, epoch)
	}
	ex.vals = append(ex.vals[:0], float64(sh.rows))
	ex.vals = append(ex.vals, w...)
	if err := sh.runner.RunEpoch(epoch, w, alpha, ex.vals[1:]); err != nil {
		return nil, err
	}
	return ex.vals, nil
}

// lossAt handles SHARD_LOSS: the shard's summed example loss at the
// shipped model. The frame carries the newest completed epoch, and the
// runner catches its ordering up to it first, so a shard requeued here
// mid-loss-pass sums in the same order as one that ran every STEP in place.
func (ex *Executor) lossAt(shard uint32, body []byte) ([]float64, error) {
	sh, err := ex.sealed(shard, "LOSS")
	if err != nil {
		return nil, err
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("dist: SHARD_LOSS frame truncated before epoch")
	}
	epoch := int(int32(binary.LittleEndian.Uint32(body)))
	body = body[4:]
	if epoch < -1 || epoch > maxEpoch {
		return nil, fmt.Errorf("dist: epoch %d out of range", epoch)
	}
	w, err := ex.decodeModel(body, sh)
	if err != nil {
		return nil, err
	}
	if err := sh.runner.CatchUp(epoch); err != nil {
		return nil, err
	}
	loss, err := sh.runner.LossAt(w)
	if err != nil {
		return nil, err
	}
	ex.vals = append(ex.vals[:0], loss)
	return ex.vals, nil
}

// decodeModel parses the u16 dim | f64×dim tail shared by STEP and LOSS
// into the executor's reusable model buffer, validating against the
// shard's task dimension.
func (ex *Executor) decodeModel(body []byte, sh *execShard) (vector.Dense, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("dist: frame truncated before model dimension")
	}
	dim := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if dim != sh.task.Dim() {
		return nil, fmt.Errorf("dist: model dimension %d, shard task wants %d", dim, sh.task.Dim())
	}
	if len(body) != 8*dim {
		return nil, fmt.Errorf("dist: frame carries %d model bytes, dimension %d needs %d", len(body), dim, 8*dim)
	}
	if cap(ex.w) < dim {
		ex.w = vector.NewDense(dim)
	}
	w := ex.w[:dim]
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return w, nil
}
