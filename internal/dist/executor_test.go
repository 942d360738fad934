package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/wire"
)

// buildLR resolves the only task these tests ship. Using the registry
// would import spec, which imports dist — the server wires the real
// registry in production.
func buildLR(name string, params map[string]string) (core.Task, error) {
	return &tasks.LR{D: 54}, nil
}

// roundTrip feeds one already-encoded request frame (length prefix
// included, as the Append helpers build them) through the executor and
// decodes the response.
func roundTrip(t *testing.T, ex *Executor, frame []byte) ([]float64, error) {
	t.Helper()
	resp, ok := ex.Handle(frame[4:])
	if !ok {
		t.Fatal("executor refused a frame outside shutdown")
	}
	_, vals, err := wire.DecodeResponse(resp[4:], nil)
	// vals aliases executor scratch reused by the next Handle; copy.
	return append([]float64(nil), vals...), err
}

// shipShard drives the LOAD → ROWS* → SEAL flow for shard 0 of tbl onto
// ex, returning the sealed row count.
func shipShard(t *testing.T, ex *Executor, tbl *engine.Table, seed int64) int {
	t.Helper()
	st, err := engine.ShardTable(tbl, 1, engine.ShardRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	frame, err := AppendLoad(nil, 1, 0, OrderShuffleOnce, seed, "lr", map[string]string{"dim": "54"}, tasks.DenseExampleSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := roundTrip(t, ex, frame); err != nil {
		t.Fatalf("LOAD: %v", err)
	}
	err = st.ShardChunks(0, MaxRowChunkBytes, func(records [][]byte) error {
		frame, err := AppendRows(nil, 2, 0, records)
		if err != nil {
			return err
		}
		_, err = roundTrip(t, ex, frame)
		return err
	})
	if err != nil {
		t.Fatalf("ROWS: %v", err)
	}
	frame, err = AppendShardOnly(nil, OpShardSeal, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := roundTrip(t, ex, frame)
	if err != nil {
		t.Fatalf("SEAL: %v", err)
	}
	if len(vals) != 1 {
		t.Fatalf("SEAL answered %d values, want 1", len(vals))
	}
	return int(vals[0])
}

func stepAt(t *testing.T, ex *Executor, epoch int, w []float64) []float64 {
	t.Helper()
	frame, err := AppendStep(nil, 10+uint64(epoch), 0, epoch, 0.1, w)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := roundTrip(t, ex, frame)
	if err != nil {
		t.Fatalf("STEP(%d): %v", epoch, err)
	}
	if len(vals) != len(w)+1 {
		t.Fatalf("STEP(%d) answered %d values, want %d", epoch, len(vals), len(w)+1)
	}
	return vals
}

func lossAt(t *testing.T, ex *Executor, epoch int, w []float64) float64 {
	t.Helper()
	frame, err := AppendLoss(nil, 20, 0, epoch, w)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := roundTrip(t, ex, frame)
	if err != nil {
		t.Fatalf("LOSS(%d): %v", epoch, err)
	}
	if len(vals) != 1 {
		t.Fatalf("LOSS answered %d values, want 1", len(vals))
	}
	return vals[0]
}

// TestExecutorEpochReplayDeterminism is the requeue property at the
// executor level: a fresh executor asked to STEP at epoch E replays the
// ordering stream 0..E first, so its reply is bit-identical to an
// executor that lived through every earlier epoch in place — and a LOSS
// carrying epoch E on a never-stepped shard sums in the same order too.
func TestExecutorEpochReplayDeterminism(t *testing.T) {
	tbl := data.Forest(60, 3)
	defer tbl.Close()

	lived := NewExecutor(buildLR, nil)
	defer lived.Close()
	if rows := shipShard(t, lived, tbl, 42); rows != 60 {
		t.Fatalf("sealed %d rows, shipped 60", rows)
	}
	w := make([]float64, 54)
	for e := 0; e < 2; e++ {
		out := stepAt(t, lived, e, w)
		copy(w, out[1:])
	}
	// w is now the epoch-2 input; take the lived executor's epoch-2 reply.
	last := stepAt(t, lived, 2, w)

	// The requeue stand-in: fresh shard, straight to epoch 2 from the
	// same incoming model.
	fresh := NewExecutor(buildLR, nil)
	defer fresh.Close()
	shipShard(t, fresh, tbl, 42)
	got := stepAt(t, fresh, 2, w)
	if !reflect.DeepEqual(got, last) {
		t.Error("fresh executor's catch-up STEP(2) is not bit-identical to the lived executor's")
	}

	// Loss parity mid-pass: a never-stepped shard told "epoch 2" must
	// sum in the replayed order, not as-stored.
	freshLoss := NewExecutor(buildLR, nil)
	defer freshLoss.Close()
	shipShard(t, freshLoss, tbl, 42)
	if a, b := lossAt(t, freshLoss, 2, got[1:]), lossAt(t, lived, 2, got[1:]); a != b {
		t.Errorf("requeued-shard loss %v differs from lived-shard loss %v", a, b)
	}
}

// TestExecutorProtocolGuards walks the rejection surface: every
// violation must come back as a RemoteError reply, never kill the
// executor, and leave it usable.
func TestExecutorProtocolGuards(t *testing.T) {
	tbl := data.Forest(20, 1)
	defer tbl.Close()
	ex := NewExecutor(buildLR, nil)
	defer ex.Close()
	shipShard(t, ex, tbl, 7)
	w := make([]float64, 54)

	expectErr := func(name string, frame []byte, wantSub string) {
		t.Helper()
		_, err := roundTrip(t, ex, frame)
		var rerr *wire.RemoteError
		if !errors.As(err, &rerr) {
			t.Fatalf("%s: got %v, want a RemoteError", name, err)
		}
		if !strings.Contains(rerr.Msg, wantSub) {
			t.Errorf("%s: %q does not mention %q", name, rerr.Msg, wantSub)
		}
	}

	stepAt(t, ex, 1, w)
	f, _ := AppendStep(nil, 90, 0, 1, 0.1, w)
	expectErr("out-of-order STEP", f, "out-of-order")
	f, _ = AppendLoad(nil, 91, 0, OrderShuffleOnce, 7, "lr", nil, tasks.DenseExampleSchema)
	expectErr("duplicate LOAD", f, "already loaded")
	f, _ = AppendRows(nil, 92, 0, [][]byte{{1, 2, 3}})
	expectErr("ROWS after SEAL", f, "sealed")
	f, _ = AppendStep(nil, 93, 5, 2, 0.1, w)
	expectErr("STEP on unknown shard", f, "no shard")
	f, _ = AppendShardOnly(nil, 9, 94, 0)
	expectErr("unknown opcode", f, "unknown executor opcode")
	// Truncated STEP: chop the model tail off a valid frame (roundTrip
	// hands Handle the payload past the length prefix, so no refit).
	f, _ = AppendStep(nil, 95, 0, 2, 0.1, w)
	expectErr("truncated STEP", f[:len(f)-8], "model bytes")

	// A record cut exactly at a column boundary (the label column gone) is a
	// well-formed shorter tuple to a schema-less decoder; under the declared
	// schema it is a typed corrupt record, and none of the frame is inserted.
	f, _ = AppendLoad(nil, 96, 1, OrderAsStored, 7, "lr", nil, tasks.DenseExampleSchema)
	if _, err := roundTrip(t, ex, f); err != nil {
		t.Fatalf("LOAD of a second shard: %v", err)
	}
	rec := engine.Tuple{engine.I64(1), engine.DenseV(make([]float64, 54)), engine.F64(1)}.Encode()
	f, _ = AppendRows(nil, 97, 1, [][]byte{rec[:len(rec)-9]})
	expectErr("record cut at a column boundary", f, "record has 2 columns, schema wants 3")
	var ce *engine.CorruptRecordError
	if err := ex.rows(1, f[4+1+8+4:]); !errors.As(err, &ce) { // past length, op, id, shard
		t.Errorf("cut record: %v, want a *engine.CorruptRecordError", err)
	}
	if sh := ex.shards[1]; sh.rows != 0 || sh.tbl.NumRows() != 0 {
		t.Errorf("cut record inserted rows: counted %d, table holds %d", sh.rows, sh.tbl.NumRows())
	}

	// The executor still works after every rejection.
	stepAt(t, ex, 2, w)
	if got := len(ex.shards); got != 2 {
		t.Fatalf("executor holds %d shards, want 2", got)
	}
}

// TestExecutorStepLossAllocs pins the executor's steady-state request
// path: past the epoch that draws the shuffle, a STEP or a LOSS through
// Handle allocates at most the one scratch tuple each slab scan takes,
// whatever the shard's size — the admitted dispatch is bound once.
func TestExecutorStepLossAllocs(t *testing.T) {
	const runs = 20
	for _, rows := range []int{60, 2000} {
		tbl := data.Forest(rows, 3)
		ex := NewExecutor(buildLR, nil)
		shipShard(t, ex, tbl, 42)
		w := make([]float64, 54)
		// AllocsPerRun makes one warm-up call before its runs; frame 0 is
		// the shuffling epoch, stepped before measuring.
		steps := make([][]byte, runs+2)
		for e := range steps {
			f, err := AppendStep(nil, uint64(e), 0, e, 0.1, w)
			if err != nil {
				t.Fatal(err)
			}
			steps[e] = f[4:]
		}
		loss, err := AppendLoss(nil, 99, 0, runs+1, w)
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		var failed error
		handle := func(payload []byte) {
			resp, ok := ex.Handle(payload)
			if !ok {
				failed = errors.New("executor refused a frame outside shutdown")
				return
			}
			if _, vals, err = wire.DecodeResponse(resp[4:], vals[:0]); err != nil {
				failed = err
			}
		}
		handle(steps[0])
		next := 1
		step := testing.AllocsPerRun(runs, func() {
			handle(steps[next])
			next++
		})
		lossAllocs := testing.AllocsPerRun(runs, func() { handle(loss[4:]) })
		if failed != nil {
			t.Fatalf("%d rows: %v", rows, failed)
		}
		if step > 1 || lossAllocs > 1 {
			t.Errorf("%d rows: %.1f allocations per STEP, %.1f per LOSS; want at most 1 each", rows, step, lossAllocs)
		}
		ex.Close()
		tbl.Close()
	}
}

// TestWireEncodersRejectOutOfRange pins the client-side validation so a
// bad statement fails locally instead of as a garbled frame.
func TestWireEncodersRejectOutOfRange(t *testing.T) {
	w := make([]float64, 4)
	if _, err := AppendStep(nil, 1, 0, -1, 0.1, w); err == nil {
		t.Error("AppendStep accepted a negative epoch")
	}
	if _, err := AppendLoss(nil, 1, 0, -2, w); err == nil {
		t.Error("AppendLoss accepted an epoch below -1")
	}
	if _, err := AppendLoss(nil, 1, 0, 0, nil); err == nil {
		t.Error("AppendLoss accepted an empty model")
	}
	if _, err := AppendLoad(nil, 1, 0, OrderAsStored, 0, "", nil, tasks.DenseExampleSchema); err == nil {
		t.Error("AppendLoad accepted an empty task name")
	}
	if _, err := AppendRows(nil, 1, 0, nil); err == nil {
		t.Error("AppendRows accepted zero records")
	}
}

// TestAdaptiveShards pins the K heuristic: one shard per executor at
// minimum, growing in executor multiples only while shards stay above
// the row target, capped at 4x executors and the engine ceiling.
func TestAdaptiveShards(t *testing.T) {
	cases := []struct {
		rows, executors, maxK, want int
	}{
		{1000, 2, 1024, 2},          // small table: one shard per node
		{100000, 2, 1024, 6},        // grows while shards stay >= 16384 rows
		{10000000, 2, 1024, 8},      // capped at 4x executors
		{10000000, 2, 3, 3},         // engine ceiling wins
		{500, 0, 1024, 1},           // degenerate executor count
		{16384 * 8, 4, 1024, 8},     // exact boundary: 8 shards of 16384
		{16384*8 - 1, 4, 1024, 4},   // just under: stays at one per node
		{1 << 30, 16, 1024, 16 * 4}, // big everything: 4x executors
	}
	for _, c := range cases {
		if got := AdaptiveShards(c.rows, c.executors, c.maxK); got != c.want {
			t.Errorf("AdaptiveShards(%d, %d, %d) = %d, want %d", c.rows, c.executors, c.maxK, got, c.want)
		}
	}
}
