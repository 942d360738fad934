package serve

import (
	"fmt"
	"testing"
)

// BenchmarkServingPredict measures the steady-state serving path — gate
// admit, epoch-pointer cache hit, pooled-scratch scoring — at two batch
// shapes, serially and with every P hammering it (the -cpu flag scales
// the parallel variant's concurrency). CI runs one iteration of each as
// a smoke test; benchmark/ measures predictions/sec against a real daemon.
func BenchmarkServingPredict(b *testing.B) {
	r := newRig(b, Options{Inflight: 16, MaxQueue: 1 << 16})
	r.train(b, "pos")

	for _, batch := range []int{1, 8} {
		points := make([][]float64, batch)
		for i := range points {
			points[i] = []float64{1, 1}
		}
		b.Run(fmt.Sprintf("batch%d/serial", batch), func(b *testing.B) {
			scores := make([]float64, batch)
			if _, err := r.plane.Predict("m", points, scores); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.plane.Predict("m", points, scores); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch%d/parallel", batch), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				scores := make([]float64, batch)
				for pb.Next() {
					if _, err := r.plane.Predict("m", points, scores); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
