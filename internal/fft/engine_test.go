// Black-box property tests for the FFT engine, checked against the O(n²)
// reference DFT in internal/ops (an external test package, so the
// ops → fft dependency does not cycle).
package fft_test

import (
	"math/cmplx"
	"sync"
	"testing"

	"tfhpc/internal/fft"
	"tfhpc/internal/gemm"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

func randComplex(seed uint64, n int) []complex128 {
	r := tensor.NewRNG(seed)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return out
}

func randReal(seed uint64, n int) []float64 {
	r := tensor.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()*2 - 1
	}
	return out
}

// TestForwardMatchesNaiveDFT covers every schedule shape the radix-2/4/8
// kernels produce: n = 2 and 4 (single cleanup pass), 8 (single radix-8),
// 16/32/64 (cleanup + radix-8 combinations) up through 4096.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096} {
		x := randComplex(uint64(n)+1, n)
		got := append([]complex128(nil), x...)
		if err := fft.Forward(got); err != nil {
			t.Fatal(err)
		}
		want := ops.NaiveDFT(x, false)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512} {
		x := randComplex(uint64(n)+2, n)
		got := append([]complex128(nil), x...)
		if err := fft.Inverse(got); err != nil {
			t.Fatal(err)
		}
		want := ops.NaiveDFT(x, true)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: IFFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// paths drives both transform paths through the export hooks, at sizes
// that stay cheap under -race: the four-step path engages on its own only
// from fft.FourStepMin.
var paths = []struct {
	name string
	run  func(*fft.Plan, []complex128, bool)
}{{"direct", (*fft.Plan).Direct}, {"four-step", (*fft.Plan).FourStep}}

// TestRoundTrip checks ifft(fft(x)) ≈ x on both transform paths, with an
// accuracy bound that grows only logarithmically with n.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{2, 64, 4096, 1 << 15, 1 << 16} {
		p, err := fft.PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randComplex(uint64(n)+3, n)
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		tol := 1e-13 * float64(logn+1)
		for _, path := range paths {
			a := append([]complex128(nil), x...)
			path.run(p, a, false)
			path.run(p, a, true)
			for i := range x {
				if cmplx.Abs(a[i]-x[i]) > tol {
					t.Fatalf("%s n=%d: round trip off at %d: |Δ|=%g > %g", path.name, n, i, cmplx.Abs(a[i]-x[i]), tol)
				}
			}
		}
	}
}

// TestTransformBatchMatchesPerRow checks the batched entry point against
// row-at-a-time transforms.
func TestTransformBatchMatchesPerRow(t *testing.T) {
	const n, rows = 128, 9
	p, err := fft.PlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(11, n*rows)
	batch := append([]complex128(nil), x...)
	if err := p.TransformBatch(batch, false); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		row := append([]complex128(nil), x[r*n:(r+1)*n]...)
		if err := p.Transform(row, false); err != nil {
			t.Fatal(err)
		}
		for i := range row {
			if batch[r*n+i] != row[i] {
				t.Fatalf("batch row %d differs at %d", r, i)
			}
		}
	}
	if err := p.TransformBatch(make([]complex128, n+1), false); err == nil {
		t.Fatal("ragged batch should error")
	}
}

// TestRFFTMatchesComplexFFT checks the packed-real fast path against the
// complex transform of the same signal, down to the radix edge sizes.
func TestRFFTMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 256, 2048} {
		x := randReal(uint64(n)+4, n)
		spec, err := fft.RFFT(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec) != n/2+1 {
			t.Fatalf("n=%d: spectrum length %d, want %d", n, len(spec), n/2+1)
		}
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		want := ops.NaiveDFT(full, false)
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(spec[k]-want[k]) > 1e-10*float64(n) {
				t.Fatalf("n=%d: RFFT[%d] = %v, want %v", n, k, spec[k], want[k])
			}
		}
	}
}

func TestIRFFTRoundTrip(t *testing.T) {
	for _, n := range []int{2, 8, 128, 1 << 12} {
		x := randReal(uint64(n)+5, n)
		spec, err := fft.RFFT(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := fft.IRFFT(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if d := back[i] - x[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("n=%d: IRFFT round trip off at %d by %g", n, i, d)
			}
		}
	}
	if _, err := fft.RFFT(make([]float64, 12)); err == nil {
		t.Fatal("non-power-of-two real length should error")
	}
	if _, err := fft.IRFFT(make([]complex128, 4), 8); err == nil {
		t.Fatal("mismatched spectrum length should error")
	}
}

// TestFFT2DMatchesNaive checks the 2-D transform against row-then-column
// naive DFTs, including non-square shapes.
func TestFFT2DMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{1, 8}, {8, 1}, {4, 4}, {8, 16}, {32, 8}} {
		x := randComplex(uint64(tc.r*tc.c)+6, tc.r*tc.c)
		got := append([]complex128(nil), x...)
		if err := fft.FFT2D(got, tc.r, tc.c, false); err != nil {
			t.Fatal(err)
		}
		// Reference: naive DFT along rows, then along columns.
		want := make([]complex128, len(x))
		for i := 0; i < tc.r; i++ {
			copy(want[i*tc.c:(i+1)*tc.c], ops.NaiveDFT(x[i*tc.c:(i+1)*tc.c], false))
		}
		col := make([]complex128, tc.r)
		for j := 0; j < tc.c; j++ {
			for i := 0; i < tc.r; i++ {
				col[i] = want[i*tc.c+j]
			}
			for i, v := range ops.NaiveDFT(col, false) {
				want[i*tc.c+j] = v
			}
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(len(x)) {
				t.Fatalf("%dx%d: FFT2D[%d] = %v, want %v", tc.r, tc.c, i, got[i], want[i])
			}
		}
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	const r, c = 64, 128
	x := randComplex(9, r*c)
	a := append([]complex128(nil), x...)
	if err := fft.FFT2D(a, r, c, false); err != nil {
		t.Fatal(err)
	}
	if err := fft.FFT2D(a, r, c, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(a[i]-x[i]) > 1e-12 {
			t.Fatalf("2-D round trip off at %d", i)
		}
	}
	if err := fft.FFT2D(a, 3, c, false); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

// TestConcurrentTransforms hammers one shared plan from many goroutines on
// both paths, the four-step one fanning out over the shared worker pool
// from every goroutine at once; `go test -race` turns this into the
// engine's data-race check.
func TestConcurrentTransforms(t *testing.T) {
	p, err := fft.PlanFor(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	x := randComplex(10, p.Len())
	want := make([][]complex128, len(paths))
	for i, path := range paths {
		want[i] = append([]complex128(nil), x...)
		path.run(p, want[i], false)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi, path := range paths {
				a := append([]complex128(nil), x...)
				path.run(p, a, false)
				for i := range a {
					if a[i] != want[pi][i] {
						errs <- &mismatchError{i}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

type mismatchError struct{ i int }

func (e *mismatchError) Error() string { return "concurrent transform mismatch" }

func TestPlanForRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-1, 0, 3, 12, 1000} {
		if _, err := fft.PlanFor(n); err == nil {
			t.Fatalf("PlanFor(%d) should error", n)
		}
	}
	if err := fft.Forward(make([]complex128, 5)); err == nil {
		t.Fatal("Forward on non-power-of-two should error")
	}
	p, err := fft.PlanFor(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4), false); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// The butterflies select on gemm's AVX+FMA capability, not on its kernel
// name: whenever gemm runs any SIMD kernel, fft runs its AVX kernel too.
func TestKernelFollowsGemmSIMD(t *testing.T) {
	if gemm.KernelName() != "portable-go" && fft.KernelName() != "avx-fma" {
		t.Fatalf("gemm kernel %q but fft kernel %q, want avx-fma", gemm.KernelName(), fft.KernelName())
	}
	if gemm.HasAVXFMA() != (fft.KernelName() == "avx-fma") {
		t.Fatalf("gemm.HasAVXFMA() = %v but fft kernel %q", gemm.HasAVXFMA(), fft.KernelName())
	}
}
