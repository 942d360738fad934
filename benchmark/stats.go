package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice. It panics on an empty
// slice: every phase guarantees at least one sample before summarising.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rank is the nearest-rank index of quantile q in a sorted sample of n:
// the smallest index with at least q·n samples at or below it.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1 // the epsilon absorbs q not being exact in binary
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile is the nearest-rank quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)]
}

// tailQuantiles are the candidates for "the highest percentile the sample
// supports", lowest first.
var tailQuantiles = []float64{0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before it is reported: with fewer, the figure is a single outlier.
const minBeyond = 10

// highestSupported returns the largest tail quantile that still has at
// least minBeyond samples beyond its rank, and false when even p90 does
// not (n < 100).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailQuantiles {
		if n-1-rank(n, q) >= minBeyond {
			best, ok = q, true
		}
	}
	return best, ok
}

// summary is what every timed phase reports: how many samples, their
// median, and the highest supported tail.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailQ  float64 `json:"tail_q,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: median(s)}
	if q, ok := highestSupported(len(s)); ok {
		out.TailQ, out.Tail = q, quantile(s, q)
	}
	return out
}

// pcts is a sample's median and 99th percentile.
type pcts struct{ p50, p99 float64 }

// medianAndP99 returns both nearest-rank figures of xs (zero for an empty
// sample) without reordering it.
func medianAndP99(xs []float64) pcts {
	if len(xs) == 0 {
		return pcts{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pcts{quantile(s, 0.5), quantile(s, 0.99)}
}
