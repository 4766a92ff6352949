//go:build amd64

package gemm

import (
	"encoding/binary"
	"math"
	"testing"
)

// NaN inputs use the one NaN the hardware itself produces (Inf·0, Inf−Inf:
// sign set, quiet, zero payload). Go leaves unspecified which operand's
// payload a NaN-with-NaN operation returns, and the compiler orders the
// operands of the portable loop's adds freely, so with two distinct NaN
// payloads in one sum even the portable loop's result bits are an accident
// of compilation. With a single NaN pattern every NaN in the sum has the
// same bits and the comparison below can be exact.
var (
	hwNaN64 = math.Float64frombits(0xfff8000000000000)
	hwNaN32 = math.Float32frombits(0xffc00000)
)

// checkMatVecSIMD runs rows [lo, hi) of y = A·x through the assembly path
// and the portable loop, both called directly, and fails unless every
// output is bit-identical and rows outside [lo, hi) are untouched.
func checkMatVecSIMD(t testing.TB, lo, hi, n, lda int, a64, x64 []float64) {
	t.Helper()
	const sentinel = 12345.0
	y := make([]float64, hi)
	want := make([]float64, hi)
	for i := range y {
		y[i], want[i] = sentinel, sentinel
	}
	matVec64AVX(lo, hi, n, a64, lda, x64, y)
	matVec64Go(lo, hi, n, a64, lda, x64, want)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("f64 rows [%d,%d) n=%d lda=%d: y[%d] = %v (%#x), portable %v (%#x)",
				lo, hi, n, lda, i, y[i], math.Float64bits(y[i]), want[i], math.Float64bits(want[i]))
		}
	}

	a32, x32 := narrow(a64), narrow(x64)
	y32 := make([]float32, hi)
	want32 := make([]float32, hi)
	for i := range y32 {
		y32[i], want32[i] = sentinel, sentinel
	}
	matVec32AVX(lo, hi, n, a32, lda, x32, y32)
	matVec32Go(lo, hi, n, a32, lda, x32, want32)
	for i := range y32 {
		if math.Float32bits(y32[i]) != math.Float32bits(want32[i]) {
			t.Fatalf("f32 rows [%d,%d) n=%d lda=%d: y[%d] = %v (%#x), portable %v (%#x)",
				lo, hi, n, lda, i, y32[i], math.Float32bits(y32[i]), want32[i], math.Float32bits(want32[i]))
		}
	}
}

// narrow converts to float32, mapping NaN to hwNaN32.
func narrow(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, f := range v {
		if math.IsNaN(f) {
			out[i] = hwNaN32
		} else {
			out[i] = float32(f)
		}
	}
	return out
}

func requireAVX(t testing.TB) {
	if !hasAVXFMA() {
		t.Skip("host has no AVX+FMA")
	}
}

func TestMatVecSIMDMatchesPortable(t *testing.T) {
	requireAVX(t)
	specials := []float64{hwNaN64, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, m := range []int{0, 1, 7, 8, 9, 65, 513} {
		for _, n := range []int{0, 1, 3, 4, 5, 8, 1023, 1027} {
			for _, lda := range []int{n, n + 3} {
				a := make([]float64, m*lda)
				x := make([]float64, n)
				fillRand(a, uint64(m*31+n*7+lda))
				fillRand(x, uint64(n*13+m+1))
				// Large and tiny magnitudes make rounding order visible.
				for i := range a {
					if i%5 == 0 {
						a[i] *= 1e12
					} else if i%7 == 0 {
						a[i] *= 1e-12
					}
				}
				checkMatVecSIMD(t, 0, m, n, lda, a, x)
				if m > 3 {
					checkMatVecSIMD(t, 3, m, n, lda, a, x)
				}

				// Then the IEEE specials, sparse enough that most rows stay
				// finite: a NaN, ±Inf or −0 in A, in x, and −0 products.
				if m == 0 || n == 0 {
					continue
				}
				for k, s := range specials {
					a[(k*7919)%len(a)] = s
					x[(k*104729)%n] = s
				}
				checkMatVecSIMD(t, 0, m, n, lda, a, x)
				neg0 := make([]float64, n)
				for i := range neg0 {
					neg0[i] = math.Copysign(0, -1)
				}
				checkMatVecSIMD(t, 0, m, n, lda, a, neg0)
			}
		}
	}
}

// FuzzMatVec compares the assembly path with the portable loop on
// arbitrary bit patterns, NaNs canonicalised to hwNaN64 (see above).
func FuzzMatVec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, uint8(9), uint8(5), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(16), uint8(11), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, m, n, pad uint8) {
		requireAVX(t)
		rows, cols, lda := int(m%40), int(n%70), int(n%70)+int(pad%5)
		word := func(i int) float64 {
			if len(data) < 8 {
				return float64(i)
			}
			off := (i * 8) % (len(data) - 7)
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			if math.IsNaN(v) {
				return hwNaN64
			}
			return v
		}
		a := make([]float64, rows*lda)
		for i := range a {
			a[i] = word(i)
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = word(len(a) + i)
		}
		checkMatVecSIMD(t, 0, rows, cols, lda, a, x)
	})
}
