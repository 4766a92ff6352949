package fft

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"tfhpc/internal/gemm"
)

// naiveDFT is a local O(n²) reference (ops.NaiveDFT cannot be imported from
// an in-package test: ops depends on this package).
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randSignal(seed uint64, n int) []complex128 {
	state := seed
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53)*2 - 1
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(next(), next())
	}
	return out
}

// TestScheduleCoversAllStages checks the radix schedule multiplies out to n
// and uses at most one non-radix-8 cleanup pass, run first.
func TestScheduleCoversAllStages(t *testing.T) {
	for n := 2; n <= 1<<20; n <<= 1 {
		p := mustPlan(n)
		prod := 1
		for i, r := range p.Schedule() {
			if r != 8 && i != 0 {
				t.Fatalf("n=%d: cleanup radix %d at pass %d, want first", n, r, i)
			}
			prod *= r
		}
		if prod != n {
			t.Fatalf("n=%d: schedule %v covers %d", n, p.Schedule(), prod)
		}
	}
}

// TestFourStepMatchesNaiveDFT drives the four-step path directly at sizes
// far below its production threshold, both parities of log2(n), forward and
// inverse.
func TestFourStepMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 256, 1024} {
		for _, inverse := range []bool{false, true} {
			x := randSignal(uint64(n), n)
			got := append([]complex128(nil), x...)
			mustPlan(n).FourStep(got, inverse)
			want := naiveDFT(x, inverse)
			for i := range want {
				if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
					t.Fatalf("n=%d inverse=%v: fourStep[%d] = %v, want %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFourStepMatchesDirectLarge cross-checks the two paths at a
// production-scale size where the naive reference is unaffordable.
func TestFourStepMatchesDirectLarge(t *testing.T) {
	n := 1 << 15
	x := randSignal(7, n)
	viaFour := append([]complex128(nil), x...)
	mustPlan(n).FourStep(viaFour, false)
	viaDirect := append([]complex128(nil), x...)
	mustPlan(n).Direct(viaDirect, false)
	for i := range viaFour {
		if cmplx.Abs(viaFour[i]-viaDirect[i]) > 1e-8*float64(n) {
			t.Fatalf("paths diverge at %d: %v vs %v", i, viaFour[i], viaDirect[i])
		}
	}
}

// TestTransformPicksPath pins the path picker: with more than one worker in
// the pool (raised to two on a one-core host), Transform is bit for bit the
// direct path just below fourStepMin and the four-step path at it.
func TestTransformPicksPath(t *testing.T) {
	if gemm.Workers() < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, tc := range []struct {
		n    int
		path func(*Plan, []complex128, bool)
	}{
		{fourStepMin / 2, (*Plan).direct},
		{fourStepMin, (*Plan).fourStep},
	} {
		p := mustPlan(tc.n)
		x := randSignal(uint64(tc.n), tc.n)
		got := append([]complex128(nil), x...)
		if err := p.Transform(got, false); err != nil {
			t.Fatal(err)
		}
		tc.path(p, x, false)
		for i := range x {
			if got[i] != x[i] {
				t.Fatalf("n=%d: Transform[%d] = %v, want the picked path's %v", tc.n, i, got[i], x[i])
			}
		}
	}
}

// TestTranspose checks the blocked parallel transpose on shapes around the
// tile edge.
func TestTranspose(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{1, 8}, {8, 1}, {4, 16}, {32, 32}, {33, 65}, {128, 64}} {
		src := randSignal(uint64(tc.r*tc.c), tc.r*tc.c)
		dst := make([]complex128, len(src))
		transpose(dst, src, tc.r, tc.c)
		for i := 0; i < tc.r; i++ {
			for j := 0; j < tc.c; j++ {
				if dst[j*tc.r+i] != src[i*tc.c+j] {
					t.Fatalf("%dx%d: transpose wrong at (%d,%d)", tc.r, tc.c, i, j)
				}
			}
		}
	}
}
