package tasks

import (
	"math"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/vector"
)

// CRF is a linear-chain conditional random field for sequence labeling
// (text chunking on CoNLL in the paper). For a token sequence x with tag
// sequence y the model scores
//
//	score(x, y) = Σ_t Σ_{f ∈ feats(x,t)} w_em[f, y_t] + Σ_{t>0} w_tr[y_{t−1}, y_t]
//
// and we minimize the negative conditional log-likelihood
// Σ_k [log Z(x_k) − score(x_k, y_k)] (Figure 1, maximizing the weights of
// features F_j). One tuple is one whole sequence; the gradient step needs
// the forward–backward marginals, making CRF the paper's "next generation"
// task — and still just another transition function in Bismarck.
//
// The flattened model stores emissions first (feature-major: w_em[f, y] at
// f·L + y), then the L×L transition block.
type CRF struct {
	F, L int // number of observation features, number of labels
}

// NewCRF returns a chain CRF task with f binary observation features and l
// labels.
func NewCRF(f, l int) *CRF { return &CRF{F: f, L: l} }

// Name implements core.Task.
func (t *CRF) Name() string { return "CRF" }

// Dim implements core.Task.
func (t *CRF) Dim() int { return t.F*t.L + t.L*t.L }

func (t *CRF) emOff(f, y int) int   { return f*t.L + y }
func (t *CRF) trOff(y1, y2 int) int { return t.F*t.L + y1*t.L + y2 }

// seq unpacks one tuple of SeqSchema.
type seq struct {
	offsets []int32 // len T+1
	feats   []int32
	labels  []int32 // len T
}

func decodeSeq(e engine.Tuple) seq {
	return seq{offsets: e[1].Ints, feats: e[2].Ints, labels: e[3].Ints}
}

func (s seq) T() int { return len(s.labels) }

// tokenFeats returns the active feature ids of token t.
func (s seq) tokenFeats(t int) []int32 { return s.feats[s.offsets[t]:s.offsets[t+1]] }

// reader gives fast dense access when possible, falling back to Model.
type reader struct {
	w vector.Dense // non-nil fast path
	m core.Model
}

func newReader(m core.Model) reader {
	if dm, ok := m.(*core.DenseModel); ok {
		return reader{w: dm.W, m: m}
	}
	return reader{m: m}
}

func (r reader) get(i int) float64 {
	if r.w != nil {
		return r.w[i]
	}
	return r.m.Get(i)
}

func (r reader) add(i int, d float64) {
	if r.w != nil {
		r.w[i] += d
		return
	}
	r.m.Add(i, d)
}

// inference runs forward-backward under the L×L transition weights tr
// (row-major, y1·L+y2), returning the log-partition, the node potentials,
// and the alpha/beta tables (all in log space, T×L row-major).
func (t *CRF) inference(r reader, tr []float64, s seq) (logZ float64, node, al, be []float64) {
	T, L := s.T(), t.L
	node = make([]float64, T*L)
	for tt := 0; tt < T; tt++ {
		fs := s.tokenFeats(tt)
		for y := 0; y < L; y++ {
			var sc float64
			for _, f := range fs {
				sc += r.get(t.emOff(int(f), y))
			}
			node[tt*L+y] = sc
		}
	}
	al = make([]float64, T*L)
	be = make([]float64, T*L)
	copy(al[:L], node[:L])
	tmp := make([]float64, L)
	for tt := 1; tt < T; tt++ {
		for y := 0; y < L; y++ {
			for y1 := 0; y1 < L; y1++ {
				tmp[y1] = al[(tt-1)*L+y1] + tr[y1*L+y]
			}
			al[tt*L+y] = logSumExp(tmp) + node[tt*L+y]
		}
	}
	for y := 0; y < L; y++ {
		be[(T-1)*L+y] = 0
	}
	for tt := T - 2; tt >= 0; tt-- {
		for y := 0; y < L; y++ {
			for y2 := 0; y2 < L; y2++ {
				tmp[y2] = tr[y*L+y2] + node[(tt+1)*L+y2] + be[(tt+1)*L+y2]
			}
			be[tt*L+y] = logSumExp(tmp)
		}
	}
	logZ = logSumExp(al[(T-1)*L:])
	return logZ, node, al, be
}

// Step implements core.Task: w += α(empirical − expected feature counts).
func (t *CRF) Step(m core.Model, e engine.Tuple, alpha float64) {
	s := decodeSeq(e)
	T, L := s.T(), t.L
	if T == 0 {
		return
	}
	r := newReader(m)
	// Every sequence touches all L² transition weights, so under AIG and
	// NoLock another worker may write them mid-step. Read them once: the
	// forward pass, the backward pass and the pairwise marginals then agree
	// on one model, and exp(α + β − log Z) stays a probability.
	tr := make([]float64, L*L)
	for i := range tr {
		tr[i] = r.get(t.trOff(0, 0) + i)
	}
	logZ, node, al, be := t.inference(r, tr, s)

	// Empirical counts: +α on the gold features and transitions.
	for tt := 0; tt < T; tt++ {
		y := int(s.labels[tt])
		for _, f := range s.tokenFeats(tt) {
			r.add(t.emOff(int(f), y), alpha)
		}
		if tt > 0 {
			r.add(t.trOff(int(s.labels[tt-1]), y), alpha)
		}
	}
	// Expected counts: −α·marginal on every feature/label pair.
	for tt := 0; tt < T; tt++ {
		fs := s.tokenFeats(tt)
		for y := 0; y < L; y++ {
			p := math.Exp(al[tt*L+y] + be[tt*L+y] - logZ)
			if p == 0 {
				continue
			}
			for _, f := range fs {
				r.add(t.emOff(int(f), y), -alpha*p)
			}
		}
	}
	for tt := 1; tt < T; tt++ {
		for y1 := 0; y1 < L; y1++ {
			a := al[(tt-1)*L+y1]
			for y2 := 0; y2 < L; y2++ {
				p := math.Exp(a + tr[y1*L+y2] + node[tt*L+y2] + be[tt*L+y2] - logZ)
				if p != 0 {
					r.add(t.trOff(y1, y2), -alpha*p)
				}
			}
		}
	}
}

// Loss implements core.Task: the sequence's negative log-likelihood
// log Z(x) − score(x, y).
func (t *CRF) Loss(w vector.Dense, e engine.Tuple) float64 {
	s := decodeSeq(e)
	if s.T() == 0 {
		return 0
	}
	logZ, node, _, _ := t.inference(reader{w: w}, w[t.trOff(0, 0):], s)
	var score float64
	for tt := 0; tt < s.T(); tt++ {
		y := int(s.labels[tt])
		score += node[tt*t.L+y]
		if tt > 0 {
			score += w[t.trOff(int(s.labels[tt-1]), y)]
		}
	}
	return logZ - score
}

// Decode returns the Viterbi-optimal label sequence for the tuple's tokens
// under model w.
func (t *CRF) Decode(w vector.Dense, e engine.Tuple) []int32 {
	s := decodeSeq(e)
	T, L := s.T(), t.L
	if T == 0 {
		return nil
	}
	r := reader{w: w}
	node := make([]float64, T*L)
	for tt := 0; tt < T; tt++ {
		fs := s.tokenFeats(tt)
		for y := 0; y < L; y++ {
			var sc float64
			for _, f := range fs {
				sc += r.get(t.emOff(int(f), y))
			}
			node[tt*L+y] = sc
		}
	}
	delta := make([]float64, T*L)
	back := make([]int32, T*L)
	copy(delta[:L], node[:L])
	for tt := 1; tt < T; tt++ {
		for y := 0; y < L; y++ {
			best, arg := math.Inf(-1), 0
			for y1 := 0; y1 < L; y1++ {
				v := delta[(tt-1)*L+y1] + w[t.trOff(y1, y)]
				if v > best {
					best, arg = v, y1
				}
			}
			delta[tt*L+y] = best + node[tt*L+y]
			back[tt*L+y] = int32(arg)
		}
	}
	out := make([]int32, T)
	best, arg := math.Inf(-1), 0
	for y := 0; y < L; y++ {
		if delta[(T-1)*L+y] > best {
			best, arg = delta[(T-1)*L+y], y
		}
	}
	out[T-1] = int32(arg)
	for tt := T - 1; tt > 0; tt-- {
		out[tt-1] = back[tt*L+int(out[tt])]
	}
	return out
}

// logSumExp computes log Σ exp(x_i) stably.
func logSumExp(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}
