// Package sampling implements §3.4: reservoir sampling (Vitter), the
// subsampling trainer that vendors ship for data that cannot be shuffled,
// and Bismarck's multiplexed reservoir sampling (MRS), which combines
// gradient steps over the reservoir buffer with gradient steps over the
// dropped tuples to beat subsampling without ever shuffling.
package sampling

import (
	"math/rand"

	"bismarck/internal/engine"
)

// Reservoir maintains a uniform without-replacement sample of the tuples
// offered to it, using the classic algorithm: fill the first m slots, then
// replace slot s with probability m/(m+k) for the k-th further item.
type Reservoir struct {
	buf  []engine.Tuple
	cap  int
	seen int
	rng  *rand.Rand
}

// NewReservoir returns a reservoir holding at most capTuples tuples.
func NewReservoir(capTuples int, rng *rand.Rand) *Reservoir {
	if capTuples < 1 {
		capTuples = 1
	}
	return &Reservoir{buf: make([]engine.Tuple, 0, capTuples), cap: capTuples, rng: rng}
}

// Offer presents one tuple. It returns the tuple that was *dropped* by the
// sampler (nil while the reservoir is still filling): either the offered
// tuple itself or the buffer entry it evicted. MRS feeds the dropped tuple
// to the I/O worker's gradient step, so no data is wasted. What it keeps is
// a copy of the header: engine.Table.ScanStable promises stable cells only.
func (r *Reservoir) Offer(t engine.Tuple) engine.Tuple {
	r.seen++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, append(engine.Tuple(nil), t...))
		return nil
	}
	s := r.rng.Intn(r.seen)
	if s < r.cap {
		dropped := r.buf[s]
		r.buf[s] = append(engine.Tuple(nil), t...)
		return dropped
	}
	return t
}

// Items returns the sampled tuples (aliasing the internal buffer).
func (r *Reservoir) Items() []engine.Tuple { return r.buf }

// Len returns the current number of buffered tuples.
func (r *Reservoir) Len() int { return len(r.buf) }

// SampleTable scans tbl once and returns a uniform sample of up to
// capTuples rows. The reservoir retains tuples past the scan callback, so
// the scan goes through ScanStable — cells in an already-fresh cache or in
// freshly allocated tuples, never the reusable-scratch path, and never a
// cache built just for the sample (which would pin a full decoded copy of
// a table this trainer exists to avoid holding).
func SampleTable(tbl *engine.Table, capTuples int, rng *rand.Rand) ([]engine.Tuple, error) {
	r := NewReservoir(capTuples, rng)
	err := tbl.ScanStable(func(tp engine.Tuple) error {
		r.Offer(tp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r.Items(), nil
}
