package server

import (
	"bismarck/internal/core"
	"bismarck/internal/dist"
	"bismarck/internal/serve"
	"bismarck/internal/spec"
)

// This file is the daemon side of distributed training (internal/dist):
// binary connections carrying executor opcodes are served by a
// per-connection dist.Executor whose tasks rebuild from the spec registry
// — the exact metadata-only path model snapshots use — and whose requests
// pass through a dedicated admission gate, so a storm of STEP frames
// sheds with the same BUSY frame and retry_after_ms hint as point
// predicts instead of oversubscribing the daemon.

// buildRegistryTask rebuilds a training task from its registry name and
// fully-resolved parameters — the dist.BuildTask the executors use. No
// data view is available, mirroring LoadSnapshot: a coordinator ships a
// TaskSpec.Snapshot of its built task, which carries every parameter, so
// Build never reaches dimension inference.
func buildRegistryTask(name string, params map[string]string) (core.Task, error) {
	ts, err := spec.Lookup(name)
	if err != nil {
		return nil, err
	}
	p, err := spec.RebindStrings(ts.Params, params)
	if err != nil {
		return nil, err
	}
	return ts.Build(spec.BuildInput{Params: p})
}

// execGate adapts a serve.Gate (plus the connection ctx's Done channel)
// to dist.Gate: a synchronous shed passes the gate's *wire.BusyError up
// as is (the executor answers it with a BUSY frame), the wait for a slot
// is cancellable, and ok=false at shutdown makes the binary loop tear the
// connection down instead of answering. The slot is released inside
// serve.Gate.Do; nothing to release crosses into dist.
type execGate struct {
	g    *serve.Gate
	done <-chan struct{}
}

// Do implements dist.Gate.
func (e execGate) Do(fn func()) (bool, error) {
	if err := e.g.Do(e.done, fn); err != nil {
		return err != serve.ErrCanceled, err
	}
	return true, nil
}

// isExecOp reports whether a binary frame opcode belongs to the executor
// protocol (dist ops continue the numbering after predict).
func isExecOp(op byte) bool {
	return op >= dist.OpShardLoad && op <= dist.OpShardFree
}
