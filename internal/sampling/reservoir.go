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
// to the I/O worker's gradient step, so no data is wasted. A scan hands out
// one tuple overwritten row after row, so what the reservoir keeps is a
// Clone, taken only of the tuples it keeps.
func (r *Reservoir) Offer(t engine.Tuple) engine.Tuple {
	r.seen++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t.Clone())
		return nil
	}
	s := r.rng.Intn(r.seen)
	if s < r.cap {
		dropped := r.buf[s]
		r.buf[s] = t.Clone()
		return dropped
	}
	return t
}

// Items returns the sampled tuples (aliasing the internal buffer).
func (r *Reservoir) Items() []engine.Tuple { return r.buf }

// Len returns the current number of buffered tuples.
func (r *Reservoir) Len() int { return len(r.buf) }

// SampleTable scans tbl once and returns a uniform sample of up to
// capTuples rows. The scan is tbl.Rows(), which never builds a cache (one
// would pin a full decoded copy of a table this trainer exists to avoid
// holding); the reservoir clones the rows it keeps.
func SampleTable(tbl *engine.Table, capTuples int, rng *rand.Rand) ([]engine.Tuple, error) {
	r := NewReservoir(capTuples, rng)
	err := tbl.Rows().Scan(func(tp engine.Tuple) error {
		r.Offer(tp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r.Items(), nil
}
