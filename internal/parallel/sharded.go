package parallel

import (
	"fmt"
	"math/rand"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// This file implements the shared-nothing sharded training mode: partition
// the data into K shard heaps, run one epoch worker per shard against a
// private model replica, and merge the replicas at every epoch boundary by
// row-weighted model averaging (Zinkevich et al. — the same algebra the
// pure-UDA merge uses, applied across shards instead of page segments).
// Unlike the shared-memory modes, workers share no mutable state during an
// epoch: each scans its own shard's decoded-row cache and updates its own
// dense replica, which is what lets the mode scale past one shared model
// and is the seam distributed backends hang off — a ShardRunner does not
// have to scan anything locally; internal/dist implements it with one
// remote round trip per epoch to an executor process, which runs the same
// Shard on its side of the wire.

// ShardRunner is one shard's training endpoint: the per-shard seam of the
// sharded epoch. RunEpoch must leave the shard's post-epoch model replica
// in replica (len == dim), starting from w with step size alpha; LossAt
// returns the shard's summed example loss at w; Rows is the shard's row
// count, the weight of its replica in the merge. Each pass calls each
// runner once, as its own engine.RunBlocks block — a runner never races with
// itself, but runners sharing a resource (a connection to one executor)
// must serialize internally.
type ShardRunner interface {
	RunEpoch(epoch int, w vector.Dense, alpha float64, replica vector.Dense) error
	LossAt(w vector.Dense) (float64, error)
	Rows() int
}

// ShardedEpoch drives one shared-nothing epoch (and the matching loss
// pass) over K shard runners. It is the core.EpochRunner of both sharded
// plans — in-process shard heaps and remote executor shards — handed to
// core.Drive as is: all per-shard state — runners, replicas, partial-loss
// slots — is allocated once at construction, and Run itself allocates
// nothing per row. With one shard the run is bit-identical to the
// sequential plan.
type ShardedEpoch struct {
	task     core.Task
	runners  []ShardRunner
	replicas []vector.Dense
	partials []float64
	weights  []float64
	total    float64

	// Per-call state, set before the pass's blocks run.
	cur   vector.Dense // model the epoch starts from / loss is evaluated at
	alpha float64
	epoch int

	// The pass's RunBlocks block functions, bound once so a steady-state
	// epoch builds no closure.
	runFn, lossFn func(_, i int) error
}

// Shard is the one ShardRunner that scans a local table: one shard's
// epoch source and ordering, its rng stream, the step and loss callbacks
// the scans run (bound once, so a steady-state epoch creates no closures),
// and the ordering replay cursor. The in-process sharded plan runs one per
// shard heap and every dist executor runs one per shipped shard, so a
// remote shard replays, steps and sums exactly as an in-process one does.
type Shard struct {
	task    core.Task
	src     engine.Relation
	prepare func(epoch int, rng *rand.Rand) error
	rng     *rand.Rand
	rows    int

	// last is the newest epoch whose ordering has been prepared (-1 at
	// build). CatchUp prepares every epoch in (last, e] in turn, so the rng
	// stream — and with it the scan order — is the same whether the shard
	// lived from epoch 0 or was built mid-run on a requeue.
	last int

	// Per-call state, set at the top of RunEpoch / LossAt.
	model   core.DenseModel // replica the epoch steps (aliases the caller's)
	cur     vector.Dense    // model LossAt evaluates
	alpha   float64
	partial float64
	stepFn  func(engine.Tuple) error
	lossFn  func(engine.Tuple) error
}

// NewShard builds the runner over one shard table. Its ordering draws from
// rand.NewSource(seed); a nil order means NoOrder.
func NewShard(task core.Task, tbl *engine.Table, order core.OrderStrategy, seed int64) (*Shard, error) {
	if order == nil {
		order = core.NoOrder{}
	}
	src, prepare, err := core.EpochSource(tbl, order, engine.Profile{})
	if err != nil {
		return nil, err
	}
	s := &Shard{task: task, src: src, prepare: prepare,
		rng: rand.New(rand.NewSource(seed)), rows: tbl.NumRows(), last: -1}
	s.stepFn = s.step
	s.lossFn = s.loss
	return s, nil
}

func (s *Shard) step(tp engine.Tuple) error {
	s.task.Step(&s.model, tp, s.alpha)
	return nil
}

func (s *Shard) loss(tp engine.Tuple) error {
	s.partial += s.task.Loss(s.cur, tp)
	return nil
}

// CatchUp prepares the ordering of every epoch in (last, e], in order. At
// or behind the cursor it does nothing, so a loss pass never advances it.
func (s *Shard) CatchUp(e int) error {
	for s.last < e {
		if err := s.prepare(s.last+1, s.rng); err != nil {
			return err
		}
		s.last++
	}
	return nil
}

// RunEpoch catches the ordering up to epoch, copies w into replica, and
// scans the shard performing gradient steps with step size alpha. An epoch
// at or behind the cursor is refused: its ordering has already been drawn.
func (s *Shard) RunEpoch(epoch int, w vector.Dense, alpha float64, replica vector.Dense) error {
	if epoch <= s.last {
		return fmt.Errorf("parallel: shard already past epoch %d (at %d) — out-of-order epoch", epoch, s.last)
	}
	if err := s.CatchUp(epoch); err != nil {
		return err
	}
	copy(replica, w)
	s.model.W, s.alpha = replica, alpha
	return s.src.Scan(s.stepFn)
}

// LossAt sums the shard's example losses at w, in the current epoch's
// scan order.
func (s *Shard) LossAt(w vector.Dense) (float64, error) {
	s.cur, s.partial = w, 0
	if err := s.src.Scan(s.lossFn); err != nil {
		return 0, err
	}
	return s.partial, nil
}

// Rows is the shard's row count (its merge weight).
func (s *Shard) Rows() int { return s.rows }

// NewShardedEpoch builds one Shard per partition of a sharded table. Shard
// i's ordering runs off its own rng stream seeded seed+i, so shard 0 of a
// 1-shard partition replays exactly the sequential trainer's stream (the
// determinism the K=1 parity test pins down).
func NewShardedEpoch(task core.Task, st *engine.ShardedTable, order core.OrderStrategy, seed int64) (*ShardedEpoch, error) {
	runners := make([]ShardRunner, st.NumShards())
	for i := range runners {
		sh, err := NewShard(task, st.Shard(i), order, seed+int64(i))
		if err != nil {
			return nil, err
		}
		runners[i] = sh
	}
	return NewShardedEpochRunners(task, runners)
}

// NewShardedEpochRunners builds the epoch driver over caller-supplied
// shard runners — the constructor distributed backends use, handing in one
// remote runner per shard. Replica buffers and merge weights (from each
// runner's Rows) are allocated here, once.
func NewShardedEpochRunners(task core.Task, runners []ShardRunner) (*ShardedEpoch, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("parallel: sharded epoch needs at least one shard runner")
	}
	k := len(runners)
	se := &ShardedEpoch{
		task:     task,
		runners:  runners,
		replicas: make([]vector.Dense, k),
		partials: make([]float64, k),
		weights:  make([]float64, k),
	}
	se.runFn, se.lossFn = se.runShard, se.lossShard
	for i, r := range runners {
		se.replicas[i] = vector.NewDense(task.Dim())
		se.weights[i] = float64(r.Rows())
		se.total += se.weights[i]
	}
	return se, nil
}

// Run executes one shared-nothing epoch: every runner starts from w,
// applies its shard's ordering, performs its shard's gradient steps with
// step size alpha, and the replicas are merged back into w by row-weighted
// averaging. Each shard is one engine.RunBlocks block, so a shard's error —
// or panic, recovered into an error naming its block, which is the shard —
// fails the epoch (and with it the statement), never the process; w is
// then left unchanged, since the merge only runs when every shard finished.
func (se *ShardedEpoch) Run(epoch int, w vector.Dense, alpha float64) error {
	se.cur, se.alpha, se.epoch = w, alpha, epoch
	if err := engine.RunBlocks(len(se.runners), len(se.runners), se.runFn); err != nil {
		return err
	}
	if se.total == 0 {
		return nil // empty table: nothing trained, w unchanged
	}
	for j := range w {
		w[j] = 0
	}
	for i := range se.runners {
		if se.weights[i] == 0 {
			continue
		}
		vector.Axpy(w, se.replicas[i], se.weights[i]/se.total)
	}
	return nil
}

func (se *ShardedEpoch) runShard(_, i int) error {
	return se.runners[i].RunEpoch(se.epoch, se.cur, se.alpha, se.replicas[i])
}

// Loss evaluates the total objective of w across all shards in parallel:
// each block sums its shard's example losses (reading the shared w, which
// no one mutates during the pass) and the partials are reduced in shard
// order, so the sum is deterministic for a fixed partitioning.
func (se *ShardedEpoch) Loss(w vector.Dense) (float64, error) {
	se.cur = w
	if err := engine.RunBlocks(len(se.runners), len(se.runners), se.lossFn); err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range se.partials {
		sum += p
	}
	if r, ok := se.task.(core.Regularized); ok {
		sum += r.RegPenalty(w)
	}
	return sum, nil
}

func (se *ShardedEpoch) lossShard(_, i int) (err error) {
	se.partials[i], err = se.runners[i].LossAt(se.cur)
	return err
}
