package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its argument: %v -> %v", in, c.in)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// strictly beyond its rank.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{99, 0, false},    // p90 has 9 beyond
		{100, 0.90, true}, // p90 has exactly 10 beyond
		{999, 0.90, true}, // p99 has 9 beyond
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{46800, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: summarize must sort a copy
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.TailQ != 0.99 || s.Tail != 990 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its argument")
	}
	if s := summarize([]float64{1, 2, 3}); s.TailQ != 0 || s.Tail != 0 {
		t.Errorf("a 3-sample summary must carry no tail, got %+v", s)
	}
}

func TestGroupLatency(t *testing.T) {
	// Three groups of 2000 requests; the middle one holds a stall, request
	// 100 failed (it has no latency), and a fourth group is too small.
	var lat []float64
	var idx []int
	for i := 0; i < 6500; i++ {
		if i == 100 {
			continue
		}
		v := 50.0
		if i >= 2000 && i < 2200 {
			v = 5000
		}
		lat, idx = append(lat, v), append(idx, i)
	}
	ranges := [][2]int{{0, 2000}, {2000, 4000}, {4000, 6000}, {6000, 6500}}
	p50s, p99s := groupLatency(lat, idx, ranges)
	if len(p50s) != 3 || len(p99s) != 3 {
		t.Fatalf("%d groups, want 3 (the 500-reply group is below minGroup)", len(p50s))
	}
	if p50s[1] != 50 || p99s[0] != 50 || p99s[1] != 5000 || p99s[2] != 50 {
		t.Errorf("p50s %v p99s %v", p50s, p99s)
	}
	if median(p99s) != 50 {
		t.Errorf("one stalled group of three moved the reported p99: %v", median(p99s))
	}
}
