package fft

import (
	"fmt"
	"runtime"
	"testing"

	"tfhpc/internal/gemm"
)

// BenchmarkFourStepCrossover prices the two transform paths against each
// other at the sizes around fourStepMin: the in-cache direct path on one
// core (GOMAXPROCS=1) against the four-step path on the whole worker pool.
// fourStepMin sits at the first size where the pool's four-step stops
// losing, and its comment quotes this benchmark. Each iteration is a
// forward+inverse pair, so the data stays bounded.
func BenchmarkFourStepCrossover(b *testing.B) {
	for logn := 17; logn <= 22; logn++ {
		n := 1 << logn
		p := mustPlan(n)
		a := randSignal(uint64(n), n)
		run := func(b *testing.B, path func([]complex128, bool)) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path(a, false)
				path(a, true)
			}
			b.ReportMetric(2*5*float64(n)*float64(logn)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		}
		b.Run(fmt.Sprintf("2^%d/direct-1core", logn), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run(b, p.direct)
		})
		b.Run(fmt.Sprintf("2^%d/fourstep-%dcores", logn, gemm.Workers()), func(b *testing.B) {
			run(b, p.fourStep)
		})
	}
}
