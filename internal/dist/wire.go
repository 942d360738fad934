// Package dist is the distributed training plane: a coordinator that
// scatters one statement's shard partitions to executor bismarckd
// processes and drives per-epoch remote steps over the binary frame
// transport, merging the replica models with the same row-weighted
// averaging the in-process sharded mode uses (DESIGN.md §7 — the algebra
// is identical; only the worker moved out of process).
//
// The executors speak the "@bin" binary framing whose codec is
// internal/wire: after the text-mode handshake every frame is
// `u32 LE payload length | payload`, requests carry
// `u8 opcode | u64 LE id | ...`, and responses are wire's OK, ERR or BUSY
// frames — an executor that sheds load answers BUSY with its
// retry_after_ms hint, and the coordinator backs off by it. This file
// owns only the opcode bodies. Executor opcodes continue the numbering
// after predict (1):
//
//	2 SHARD_LOAD  u32 shard | u8 order | u64 seed | u16 tlen | task
//	              | u16 npairs | (u16 klen | key | u16 vlen | val)×npairs
//	              | u16 ncols | (u8 type | u16 nlen | name)×ncols
//	              → OK, n=0
//	3 SHARD_ROWS  u32 shard | u32 nrecs | (u32 reclen | record)×nrecs
//	              → OK, n=0        (records are engine.Tuple.Encode bytes)
//	4 SHARD_SEAL  u32 shard → OK, n=1: [rows]
//	5 SHARD_STEP  u32 shard | u32 epoch | f64 alpha | u16 dim | f64×dim w
//	              → OK, n=dim+1: [rows, w_i...]
//	6 SHARD_LOSS  u32 shard | u32 epoch | u16 dim | f64×dim w
//	              → OK, n=1: [partial]  (epoch: newest completed, -1
//	              before the first — a requeued shard catches the
//	              ordering up before summing)
//	7 SHARD_FREE  u32 shard → OK, n=0
//
// One statement's shard lives on one connection: executor state is
// per-connection and dies with it, so a lost coordinator can never leak
// shard heaps past its TCP session. The flow is LOAD → ROWS* → SEAL →
// (STEP | LOSS)* → FREE; STEP carries the epoch number and the shard's
// parallel.Shard replays the ordering for every epoch it has not seen yet,
// which is what makes a shard requeued onto a fresh executor reproduce
// the exact rng stream — and therefore the exact model — the original
// would have produced.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bismarck/internal/engine"
	"bismarck/internal/wire"
)

// Executor opcodes (predict owns 1; see the package comment).
const (
	OpShardLoad = 2
	OpShardRows = 3
	OpShardSeal = 4
	OpShardStep = 5
	OpShardLoss = 6
	OpShardFree = 7
)

const (
	// MaxWireDim caps the model dimension of distributed training: the
	// STEP response packs rows plus dim coefficients behind a u16 count,
	// so dim+1 must fit in 65535.
	MaxWireDim = 65534

	// MaxRowChunkBytes bounds one SHARD_ROWS frame's record payload —
	// comfortably under wire.MaxFrameBytes so framing overhead never tips a
	// chunk over the cap.
	MaxRowChunkBytes = 1 << 18

	// maxEpoch bounds the epoch number an executor will replay orderings
	// up to; a corrupt or hostile STEP must not buy a year-long loop.
	maxEpoch = 1 << 20

	// Field caps for LOAD payloads — all network-facing.
	maxTaskNameLen = 256
	maxParamPairs  = 64
	maxParamLen    = 1024
	maxSchemaCols  = 64
	maxColNameLen  = 256
)

// Ordering bytes of the LOAD frame (the shard's epoch-order strategy).
const (
	OrderAsStored      = 0
	OrderShuffleOnce   = 1
	OrderShuffleAlways = 2
	OrderClustered     = 3
)

// OrderByte maps a spec order-knob name onto its wire byte; unknown names
// fall back to shuffle_once, mirroring Knobs.OrderStrategy.
func OrderByte(name string) byte {
	switch name {
	case "shuffle_always":
		return OrderShuffleAlways
	case "clustered":
		return OrderClustered
	case "", "shuffle_once":
		return OrderShuffleOnce
	}
	return OrderShuffleOnce
}

// AppendLoad encodes a SHARD_LOAD request (length prefix included): the
// shard's identity, ordering, rng seed, task name, resolved task
// parameters, and the canonical schema the shipped rows decode against.
func AppendLoad(buf []byte, id uint64, shard uint32, order byte, seed int64,
	task string, params map[string]string, schema engine.Schema) ([]byte, error) {
	if len(task) == 0 || len(task) > maxTaskNameLen {
		return buf, fmt.Errorf("dist: task name length %d out of range", len(task))
	}
	if len(params) > maxParamPairs {
		return buf, fmt.Errorf("dist: %d task params exceed the limit of %d", len(params), maxParamPairs)
	}
	if len(schema) == 0 || len(schema) > maxSchemaCols {
		return buf, fmt.Errorf("dist: schema of %d columns out of range", len(schema))
	}
	buf, start := wire.StartFrame(buf, OpShardLoad, id)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	buf = append(buf, order)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seed))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(task)))
	buf = append(buf, task...)
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(keys)))
	for _, k := range keys {
		v := params[k]
		if len(k) > maxParamLen || len(v) > maxParamLen {
			return buf, fmt.Errorf("dist: task param %q too long", k)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(schema)))
	for _, col := range schema {
		if len(col.Name) == 0 || len(col.Name) > maxColNameLen {
			return buf, fmt.Errorf("dist: schema column name length %d out of range", len(col.Name))
		}
		buf = append(buf, byte(col.Type))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(col.Name)))
		buf = append(buf, col.Name...)
	}
	return wire.FinishFrame(buf, start)
}

// AppendRows encodes a SHARD_ROWS request carrying a chunk of encoded
// records. The caller keeps chunks under MaxRowChunkBytes of record bytes
// (engine.ShardedTable.ShardChunks does); the frame cap is validated here
// regardless.
func AppendRows(buf []byte, id uint64, shard uint32, records [][]byte) ([]byte, error) {
	if len(records) == 0 {
		return buf, fmt.Errorf("dist: SHARD_ROWS wants at least one record")
	}
	buf, start := wire.StartFrame(buf, OpShardRows, id)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(records)))
	for _, rec := range records {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = append(buf, rec...)
	}
	return wire.FinishFrame(buf, start)
}

// AppendShardOnly encodes the bodyless shard ops: SEAL and FREE.
func AppendShardOnly(buf []byte, op byte, id uint64, shard uint32) ([]byte, error) {
	buf, start := wire.StartFrame(buf, op, id)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	return wire.FinishFrame(buf, start)
}

// AppendStep encodes a SHARD_STEP request: run the shard's epoch from
// model w with step size alpha (replaying any unseen epoch orderings
// first).
func AppendStep(buf []byte, id uint64, shard uint32, epoch int, alpha float64, w []float64) ([]byte, error) {
	if len(w) == 0 || len(w) > MaxWireDim {
		return buf, fmt.Errorf("dist: model dimension %d out of wire range 1..%d", len(w), MaxWireDim)
	}
	if epoch < 0 || epoch > maxEpoch {
		return buf, fmt.Errorf("dist: epoch %d out of range", epoch)
	}
	buf, start := wire.StartFrame(buf, OpShardStep, id)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(epoch))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(alpha))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w)))
	for _, v := range w {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return wire.FinishFrame(buf, start)
}

// AppendLoss encodes a SHARD_LOSS request: sum the shard's example losses
// at model w. epoch is the newest completed training epoch (-1 before the
// first): a shard requeued onto a fresh executor mid-loss-pass replays the
// ordering stream up to that epoch before scanning, so the float summation
// order — and with it the loss bits — matches a shard that lived through
// every STEP in place.
func AppendLoss(buf []byte, id uint64, shard uint32, epoch int, w []float64) ([]byte, error) {
	if len(w) == 0 || len(w) > MaxWireDim {
		return buf, fmt.Errorf("dist: model dimension %d out of wire range 1..%d", len(w), MaxWireDim)
	}
	if epoch < -1 || epoch > maxEpoch {
		return buf, fmt.Errorf("dist: epoch %d out of range", epoch)
	}
	buf, start := wire.StartFrame(buf, OpShardLoss, id)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(epoch)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w)))
	for _, v := range w {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return wire.FinishFrame(buf, start)
}

// AppendOK encodes a success response frame (length prefix included) —
// the executor side of the protocol; see wire.AppendOK.
func AppendOK(buf []byte, id uint64, vals []float64) []byte {
	return wire.AppendOK(buf, id, vals)
}
