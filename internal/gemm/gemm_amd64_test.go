//go:build amd64

package gemm

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func requireAVX512(t testing.TB) {
	if !hasAVX512F() {
		t.Skip("host has no AVX-512F: the 14×32 kernel cannot run here")
	}
}

// gemm32Case is one Gemm32 call: operands stored with their leading
// dimensions (at least the stored row length) and the C it starts from.
type gemm32Case struct {
	transA, transB bool
	m, n, k        int
	lda, ldb, ldc  int
	a, b, c        []float32
}

// newGemm32Case stores op(A), op(B) and C with pad extra elements per row,
// filled from fill(i), which is called once per stored element.
func newGemm32Case(transA, transB bool, m, n, k, pad int, fill func(i int) float32) gemm32Case {
	g := gemm32Case{transA: transA, transB: transB, m: m, n: n, k: k}
	aRows, aCols := m, k
	if transA {
		aRows, aCols = k, m
	}
	bRows, bCols := k, n
	if transB {
		bRows, bCols = n, k
	}
	g.lda, g.ldb, g.ldc = aCols+pad, bCols+pad, n+pad
	i := 0
	mk := func(rows, ld int) []float32 {
		v := make([]float32, rows*ld)
		for j := range v {
			v[j] = fill(i)
			i++
		}
		return v
	}
	g.a, g.b, g.c = mk(aRows, g.lda), mk(bRows, g.ldb), mk(m, g.ldc)
	return g
}

// run returns C after Gemm32 on a copy of the case's C with the mr×nr
// micro-kernel kern.
func (g gemm32Case) run(t testing.TB, mr, nr int, kern func(kc int, ap, bp, c []float32, ldc int)) []float32 {
	forceKernel(t, mr, nr, kern)
	c := slices.Clone(g.c)
	Gemm32(g.transA, g.transB, g.m, g.n, g.k, g.a, g.lda, g.b, g.ldb, c, g.ldc)
	return c
}

// checkAVX512MatchesAVX2 fails unless the 14×32 AVX-512 kernel and the 6×16
// AVX2 kernel leave every element of C, padding included, with equal bits.
func checkAVX512MatchesAVX2(t testing.TB, g gemm32Case) {
	t.Helper()
	got := g.run(t, 14, 32, kernelAVX512)
	want := g.run(t, 6, 16, kernelAVX32)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("transA=%v transB=%v m=%d n=%d k=%d ldc=%d: C[%d][%d] = %v (%#x), AVX2 kernel %v (%#x)",
				g.transA, g.transB, g.m, g.n, g.k, g.ldc, i/g.ldc, i%g.ldc,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemm32AVX512MatchesAVX2 runs random shapes up to 600 (k spans up to
// three kcBlocks, m up to eight mcBlocks, and most shapes end in edge tiles
// of both kernels) under every transpose pair, padded leading dimensions
// and a nonzero C, with and without NaN/±Inf/−0 operands.
func TestGemm32AVX512MatchesAVX2(t *testing.T) {
	requireAVX512(t)
	s := uint64(1)
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int(s>>33) % n
	}
	shapes := [][3]int{{14, 32, 1}, {14, 32, 256}, {28, 64, 257}, {84, 96, 512}, {85, 33, 513}, {1, 1, 600}, {600, 600, 600}}
	for len(shapes) < 30 {
		shapes = append(shapes, [3]int{1 + next(600), 1 + next(600), 1 + next(600)})
	}
	specials := []float32{hwNaN32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	for i, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		transA, transB := i%2 == 1, i/2%2 == 1
		pad := i % 3
		vals := make([]float64, 1+next(1<<12))
		fillRand(vals, uint64(i+1))
		fill := func(j int) float32 { return float32(vals[j%len(vals)] * math.Pow(2, float64(j%41-20))) }
		checkAVX512MatchesAVX2(t, newGemm32Case(transA, transB, m, n, k, pad, fill))
		withSpecials := func(j int) float32 {
			if j%997 == 0 {
				return specials[j/997%len(specials)]
			}
			return fill(j)
		}
		checkAVX512MatchesAVX2(t, newGemm32Case(!transA, !transB, m, n, k, pad, withSpecials))
	}
}

// FuzzGemm32Kernels compares the 14×32 AVX-512 and 6×16 AVX2 kernels
// through Gemm32 on arbitrary bit patterns, NaNs canonicalised to hwNaN32
// (see vector_amd64_test.go), with arbitrary shapes, transposes and padding.
func FuzzGemm32Kernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0x80, 0x7f, 0, 0, 0, 0, 0xc0, 0xff}, uint8(15), uint8(33), uint16(257), uint8(1))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80}, uint8(14), uint8(32), uint16(3), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, m, n uint8, k uint16, flags uint8) {
		requireAVX512(t)
		word := func(i int) float32 {
			if len(data) < 4 {
				return float32(i % 13)
			}
			off := (i * 4) % (len(data) - 3)
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			if math.IsNaN(float64(v)) {
				return hwNaN32
			}
			return v
		}
		g := newGemm32Case(flags&1 != 0, flags&2 != 0, 1+int(m)%60, 1+int(n)%80, 1+int(k)%600, int(flags>>2)%4, word)
		checkAVX512MatchesAVX2(t, g)
	})
}
