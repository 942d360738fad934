// Package parallel implements the §3.3 parallelization schemes for the IGD
// aggregate on a single-node multicore system:
//
//   - ModelAverage: the "pure UDA" plan — shared-nothing segments each train
//     an independent model, merged by averaging (Zinkevich et al.). Near
//     linear speed-up per epoch, but worse convergence per epoch.
//   - Shared-memory workers updating ONE model concurrently, in three
//     flavors: Lock (a global mutex per gradient step), AIG (per-component
//     atomic compare-and-exchange, "Atomic Incremental Gradient"), and
//     NoLock (Hogwild!: unsynchronized read-modify-write, lost updates
//     accepted).
package parallel

import (
	"math"
	"sync/atomic"

	"bismarck/internal/vector"
)

// AtomicModel stores model components as float64 bit patterns in uint64
// cells so they can be updated with sync/atomic. Two update disciplines are
// provided: AddCAS (a compare-and-exchange retry loop = the paper's AIG
// scheme) and AddRacy (atomic load then atomic store with no
// read-modify-write atomicity = NoLock/Hogwild semantics: concurrent
// updates may be lost, which the convergence theory tolerates, while the
// use of atomics keeps each individual read/write untorn).
type AtomicModel struct {
	bits []uint64
	cas  bool // true = AIG, false = NoLock
}

// NewAtomicModel returns a zero model of dimension d; cas selects the AIG
// (true) or NoLock (false) update discipline for Add.
func NewAtomicModel(d int, cas bool) *AtomicModel {
	return &AtomicModel{bits: make([]uint64, d), cas: cas}
}

// SetFrom copies w into the model (not concurrency-safe; call before
// starting workers).
func (m *AtomicModel) SetFrom(w vector.Dense) {
	for i, x := range w {
		m.bits[i] = math.Float64bits(x)
	}
}

// Dim implements core.Model.
func (m *AtomicModel) Dim() int { return len(m.bits) }

// Get implements core.Model with an atomic load.
func (m *AtomicModel) Get(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&m.bits[i]))
}

// Add implements core.Model using the configured discipline.
func (m *AtomicModel) Add(i int, delta float64) {
	if m.cas {
		m.AddCAS(i, delta)
	} else {
		m.AddRacy(i, delta)
	}
}

// AddCAS adds delta to component i with a compare-and-exchange loop —
// per-component locking in the AIG sense: no update is ever lost.
func (m *AtomicModel) AddCAS(i int, delta float64) {
	for {
		old := atomic.LoadUint64(&m.bits[i])
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&m.bits[i], old, nw) {
			return
		}
	}
}

// AddRacy adds delta with a plain load-compute-store. Concurrent writers
// may overwrite each other's additions (lost updates) — exactly the NoLock
// behaviour the Hogwild! analysis shows is harmless for sparse problems.
func (m *AtomicModel) AddRacy(i int, delta float64) {
	old := atomic.LoadUint64(&m.bits[i])
	atomic.StoreUint64(&m.bits[i], math.Float64bits(math.Float64frombits(old)+delta))
}

// CopyTo reads every component into w (len(w) == Dim) with atomic loads.
func (m *AtomicModel) CopyTo(w vector.Dense) {
	for i := range m.bits {
		w[i] = math.Float64frombits(atomic.LoadUint64(&m.bits[i]))
	}
}

// Snapshot implements core.Model.
func (m *AtomicModel) Snapshot() vector.Dense {
	w := vector.NewDense(len(m.bits))
	m.CopyTo(w)
	return w
}
