package gemm

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// refGemm is the reference O(mnk) triple loop in float64, with explicit
// transposition.
func refGemm(transA, transB bool, m, n, k int, a, b []float64) []float64 {
	at := func(i, p int) float64 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float64 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c[i*n+j] = s
		}
	}
	return c
}

func fillRand(dst []float64, seed uint64) {
	s := seed
	for i := range dst {
		s = s*6364136223846793005 + 1442695040888963407
		dst[i] = float64(s>>11)/float64(1<<53)*2 - 1
	}
}

// forceGoKernels switches the engine to the portable 4×4 kernels for the
// duration of the test, so both code paths run under the same suite.
func forceGoKernels(t *testing.T) {
	t.Helper()
	forceKernel(t, 4, 4, kernelGo32)
	omr64, onr64, ok64 := mr64, nr64, kern64
	mr64, nr64, kern64 = 4, 4, kernelGo64
	t.Cleanup(func() { mr64, nr64, kern64 = omr64, onr64, ok64 })
}

// forceKernel switches Gemm32 to the mr×nr micro-kernel kern until the
// test ends.
func forceKernel(t testing.TB, mr, nr int, kern func(kc int, ap, bp, c []float32, ldc int)) {
	t.Helper()
	omr, onr, ok := mr32, nr32, kern32
	mr32, nr32, kern32 = mr, nr, kern
	t.Cleanup(func() { mr32, nr32, kern32 = omr, onr, ok })
}

// shapes covers degenerate, prime and non-divisible dimensions well below,
// at and above every blocking boundary.
var shapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {7, 1, 13}, {2, 3, 4}, {5, 5, 5},
	{17, 31, 13}, {31, 17, 29}, {64, 64, 64}, {73, 89, 97},
	{6, 16, 256}, {12, 32, 257}, {100, 3, 300}, {1, 97, 260},
}

func checkGemm32(t *testing.T, transA, transB bool, m, n, k int) {
	t.Helper()
	ref := make([]float64, m*k)
	rbf := make([]float64, k*n)
	fillRand(ref, uint64(m*1000003+n*1009+k))
	fillRand(rbf, uint64(m*31+n*37+k*41+7))
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i, v := range ref {
		a[i] = float32(v)
	}
	for i, v := range rbf {
		b[i] = float32(v)
	}
	// Re-round through float32 so the reference sees the same inputs.
	for i, v := range a {
		ref[i] = float64(v)
	}
	for i, v := range b {
		rbf[i] = float64(v)
	}
	lda, ldb := k, n
	if transA {
		lda = m
	}
	if transB {
		ldb = k
	}
	c := make([]float32, m*n)
	Gemm32(transA, transB, m, n, k, a, lda, b, ldb, c, n)
	want := refGemm(transA, transB, m, n, k, ref, rbf)
	for i := range want {
		diff := math.Abs(float64(c[i]) - want[i])
		tol := 1e-4 * math.Max(1, math.Abs(want[i])) * math.Max(1, float64(k)/64)
		if diff > tol {
			t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d: c[%d]=%v want %v", transA, transB, m, n, k, i, c[i], want[i])
		}
	}
}

func checkGemm64(t *testing.T, transA, transB bool, m, n, k int) {
	t.Helper()
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(a, uint64(m*131+n*137+k*139))
	fillRand(b, uint64(m*17+n*19+k*23+3))
	lda, ldb := k, n
	if transA {
		lda = m
	}
	if transB {
		ldb = k
	}
	c := make([]float64, m*n)
	Gemm64(transA, transB, m, n, k, a, lda, b, ldb, c, n)
	want := refGemm(transA, transB, m, n, k, a, b)
	for i := range want {
		diff := math.Abs(c[i] - want[i])
		if diff > 1e-10*math.Max(1, math.Abs(want[i]))*float64(k) {
			t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d: c[%d]=%v want %v", transA, transB, m, n, k, i, c[i], want[i])
		}
	}
}

func runGemmSuite(t *testing.T) {
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				checkGemm32(t, ta, tb, m, n, k)
				checkGemm64(t, ta, tb, m, n, k)
			}
		}
	}
}

func TestGemmAgainstReference(t *testing.T) { runGemmSuite(t) }
func TestGemmAgainstReferenceGoKernels(t *testing.T) {
	forceGoKernels(t)
	runGemmSuite(t)
}

// Property: random shapes up to a few blocking boundaries agree with the
// reference for every transpose combination.
func TestGemmRandomShapesProperty(t *testing.T) {
	f := func(mRaw, nRaw, kRaw uint8, ta, tb bool) bool {
		m, n, k := 1+int(mRaw)%90, 1+int(nRaw)%90, 1+int(kRaw)%90
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		fillRand(a, uint64(m)<<16|uint64(n)<<8|uint64(k))
		fillRand(b, uint64(k)<<16|uint64(m)<<8|uint64(n)+1)
		lda, ldb := k, n
		if ta {
			lda = m
		}
		if tb {
			ldb = k
		}
		c := make([]float64, m*n)
		Gemm64(ta, tb, m, n, k, a, lda, b, ldb, c, n)
		want := refGemm(ta, tb, m, n, k, a, b)
		for i := range want {
			if math.Abs(c[i]-want[i]) > 1e-10*math.Max(1, math.Abs(want[i]))*float64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Gemm accumulates into C (C += A·B): two calls must sum.
func TestGemmAccumulates(t *testing.T) {
	m, n, k := 9, 11, 7
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(a, 1)
	fillRand(b, 2)
	c := make([]float64, m*n)
	Gemm64(false, false, m, n, k, a, k, b, n, c, n)
	Gemm64(false, false, m, n, k, a, k, b, n, c, n)
	want := refGemm(false, false, m, n, k, a, b)
	for i := range want {
		if math.Abs(c[i]-2*want[i]) > 1e-9 {
			t.Fatalf("c[%d]=%v want %v", i, c[i], 2*want[i])
		}
	}
}

// IEEE propagation: a zero multiplicand must not short-circuit NaN or Inf
// (0·NaN = NaN, 0·Inf = NaN) — the seed's naive kernel skipped zero A
// elements and silently dropped both.
func TestGemmNaNInfPropagation(t *testing.T) {
	check := func(t *testing.T) {
		t.Helper()
		for _, special := range []float64{math.NaN(), math.Inf(1)} {
			m, n, k := 7, 9, 11
			// A is all zeros; B carries the special value in one column.
			a64 := make([]float64, m*k)
			b64 := make([]float64, k*n)
			for p := 0; p < k; p++ {
				b64[p*n+4] = special
			}
			c64 := make([]float64, m*n)
			Gemm64(false, false, m, n, k, a64, k, b64, n, c64, n)
			for i := 0; i < m; i++ {
				if !math.IsNaN(c64[i*n+4]) {
					t.Fatalf("f64: C[%d][4] = %v, want NaN from 0·%v", i, c64[i*n+4], special)
				}
				if c64[i*n+0] != 0 {
					t.Fatalf("f64: C[%d][0] = %v, want 0", i, c64[i*n+0])
				}
			}
			a32 := make([]float32, m*k)
			b32 := make([]float32, k*n)
			for p := 0; p < k; p++ {
				b32[p*n+4] = float32(special)
			}
			c32 := make([]float32, m*n)
			Gemm32(false, false, m, n, k, a32, k, b32, n, c32, n)
			for i := 0; i < m; i++ {
				if !math.IsNaN(float64(c32[i*n+4])) {
					t.Fatalf("f32: C[%d][4] = %v, want NaN from 0·%v", i, c32[i*n+4], special)
				}
			}
		}
	}
	t.Run("active", check)
	t.Run("go-kernels", func(t *testing.T) {
		forceGoKernels(t)
		check(t)
	})
}

// Edge tiles add their sums to C exactly as full tiles do. Every element
// here computes −0 + fl(1e-30·−1e-30): an FMA kernel's sum underflows to
// −0 and −0 + −0 = −0, a separate multiply gives +0 + −0 = +0; either way
// all elements must agree, in full tiles and in edge tiles of any kernel
// height (4, 6, 14) and width (4, 16, 32).
func TestGemm32EdgeTilesAddLikeFullTiles(t *testing.T) {
	const m, n, k = 29, 65, 1
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = 1e-30
	}
	for i := range b {
		b[i] = -1e-30
	}
	for i := range c {
		c[i] = float32(math.Copysign(0, -1))
	}
	Gemm32(false, false, m, n, k, a, k, b, n, c, n)
	for i := range c {
		if math.Float32bits(c[i]) != math.Float32bits(c[0]) {
			t.Fatalf("C[%d][%d] = %v (%#x), C[0][0] = %v (%#x)", i/n, i%n,
				c[i], math.Float32bits(c[i]), c[0], math.Float32bits(c[0]))
		}
	}
}

// NaN in A must reach every output it participates in.
func TestGemmNaNInA(t *testing.T) {
	m, n, k := 5, 6, 8
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(b, 3)
	a[2*k+3] = math.NaN() // row 2 of op(A)
	c := make([]float64, m*n)
	Gemm64(false, false, m, n, k, a, k, b, n, c, n)
	for j := 0; j < n; j++ {
		if !math.IsNaN(c[2*n+j]) {
			t.Fatalf("C[2][%d] = %v, want NaN", j, c[2*n+j])
		}
	}
	for j := 0; j < n; j++ {
		if math.IsNaN(c[0*n+j]) {
			t.Fatalf("C[0][%d] is NaN but row 0 of A has none", j)
		}
	}
}

func TestMatVecAgainstReference(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {17, 31}, {64, 64}, {129, 200}} {
		m, n := sh[0], sh[1]
		a := make([]float64, m*n)
		x := make([]float64, n)
		fillRand(a, uint64(m*7+n))
		fillRand(x, uint64(n*13+m))
		y := make([]float64, m)
		MatVec64(m, n, a, n, x, y)
		for i := 0; i < m; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += a[i*n+j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-10*math.Max(1, math.Abs(want))*float64(n) {
				t.Fatalf("m=%d n=%d: y[%d]=%v want %v", m, n, i, y[i], want)
			}
		}
		a32 := make([]float32, m*n)
		x32 := make([]float32, n)
		for i, v := range a {
			a32[i] = float32(v)
		}
		for i, v := range x {
			x32[i] = float32(v)
		}
		y32 := make([]float32, m)
		MatVec32(m, n, a32, n, x32, y32)
		for i := 0; i < m; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += float64(a32[i*n+j]) * float64(x32[j])
			}
			if math.Abs(float64(y32[i])-want) > 1e-4*math.Max(1, math.Abs(want)) {
				t.Fatalf("f32 m=%d n=%d: y[%d]=%v want %v", m, n, i, y32[i], want)
			}
		}
	}
}

func TestDotAxpyAdd(t *testing.T) {
	n := 1037
	x := make([]float64, n)
	y := make([]float64, n)
	fillRand(x, 11)
	fillRand(y, 12)
	var want float64
	for i := range x {
		want += x[i] * y[i]
	}
	if got := Dot64(x, y); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dot64 = %v, want %v", got, want)
	}
	x32 := make([]float32, n)
	y32 := make([]float32, n)
	for i := range x {
		x32[i], y32[i] = float32(x[i]), float32(y[i])
	}
	want = 0
	for i := range x32 {
		want += float64(x32[i]) * float64(y32[i])
	}
	if got := Dot32(x32, y32); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Dot32 = %v, want %v", got, want)
	}

	z := make([]float64, n)
	Axpy64(2.5, x, y, z)
	for i := range z {
		if math.Abs(z[i]-(2.5*x[i]+y[i])) > 1e-12 {
			t.Fatalf("Axpy64[%d]", i)
		}
	}
	z32 := make([]float32, n)
	Axpy32(0.5, x32, y32, z32)
	for i := range z32 {
		if z32[i] != 0.5*x32[i]+y32[i] {
			t.Fatalf("Axpy32[%d]", i)
		}
	}
	dst32 := append([]float32(nil), x32...)
	Add32(dst32, y32)
	for i := range dst32 {
		if dst32[i] != x32[i]+y32[i] {
			t.Fatalf("Add32[%d]", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {3, 7}, {32, 32}, {33, 65}, {100, 13}} {
		m, n := sh[0], sh[1]
		src := make([]float64, m*n)
		fillRand(src, uint64(m+n))
		dst := make([]float64, m*n)
		Transpose64(m, n, src, dst)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if dst[j*m+i] != src[i*n+j] {
					t.Fatalf("T64 %dx%d mismatch at %d,%d", m, n, i, j)
				}
			}
		}
		src32 := make([]float32, m*n)
		for i, v := range src {
			src32[i] = float32(v)
		}
		dst32 := make([]float32, m*n)
		Transpose32(m, n, src32, dst32)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if dst32[j*m+i] != src32[i*n+j] {
					t.Fatalf("T32 %dx%d mismatch at %d,%d", m, n, i, j)
				}
			}
		}
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	f := func(nRaw uint16, grainRaw uint8) bool {
		n := int(nRaw % 5000)
		hits := make([]int32, n)
		ParallelFor(n, int(grainRaw), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Nested ParallelFor must complete (a caller waits only for chunks a
// running worker has claimed, so no worker starves) and cover every
// element exactly once.
func TestParallelForNested(t *testing.T) {
	outer, inner := 37, 211
	hits := make([]int32, outer*inner)
	ParallelFor(outer, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			i := i
			ParallelFor(inner, 8, func(jlo, jhi int) {
				for j := jlo; j < jhi; j++ {
					atomic.AddInt32(&hits[i*inner+j], 1)
				}
			})
		}
	})
	for idx, h := range hits {
		if h != 1 {
			t.Fatalf("element %d covered %d times", idx, h)
		}
	}
}

// The parallelism bound must follow GOMAXPROCS at call time.
func TestParallelForFollowsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var concurrent, maxSeen int32
	ParallelFor(64, 1, func(lo, hi int) {
		cur := atomic.AddInt32(&concurrent, 1)
		for {
			prev := atomic.LoadInt32(&maxSeen)
			if cur <= prev || atomic.CompareAndSwapInt32(&maxSeen, prev, cur) {
				break
			}
		}
		atomic.AddInt32(&concurrent, -1)
	})
	if maxSeen > 1 {
		t.Fatalf("GOMAXPROCS(1) but saw %d concurrent chunks", maxSeen)
	}
	if Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", Workers())
	}
}

// The full engine must be race-clean when many goroutines multiply
// concurrently (exercised under -race in CI).
func TestGemmConcurrentCallers(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			m, n, k := 65, 47, 129
			a := make([]float64, m*k)
			b := make([]float64, k*n)
			fillRand(a, uint64(g*2+1))
			fillRand(b, uint64(g*2+2))
			c := make([]float64, m*n)
			Gemm64(false, false, m, n, k, a, k, b, n, c, n)
			want := refGemm(false, false, m, n, k, a, b)
			for i := range want {
				if math.Abs(c[i]-want[i]) > 1e-9 {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("concurrent gemm mismatch")

type errString string

func (e errString) Error() string { return string(e) }

// matVecBenchShapes are the MatVec shapes the applications run: cg's
// per-worker block of its 1024² system, sgd's forward (8 rows of 65536
// features) and gradient (its transpose) products, and a full predict batch.
var matVecBenchShapes = []struct {
	name string
	m, n int
}{
	{"cg-512x1024", 512, 1024},
	{"sgd-8x65536", 8, 65536},
	{"sgd-65536x8", 65536, 8},
	{"predict-32x256", 32, 256},
}

// BenchmarkMatVec64 and BenchmarkMatVec32 report the bytes of A streamed
// per second, with the kernel selected at init (KernelName).
func BenchmarkMatVec64(b *testing.B) {
	for _, sh := range matVecBenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			a := make([]float64, sh.m*sh.n)
			x := make([]float64, sh.n)
			y := make([]float64, sh.m)
			fillRand(a, 1)
			fillRand(x, 2)
			b.SetBytes(int64(len(a)) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec64(sh.m, sh.n, a, sh.n, x, y)
			}
		})
	}
}

func BenchmarkMatVec32(b *testing.B) {
	for _, sh := range matVecBenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			a64 := make([]float64, sh.m*sh.n)
			fillRand(a64, 1)
			a := make([]float32, len(a64))
			for i, v := range a64 {
				a[i] = float32(v)
			}
			x := make([]float32, sh.n)
			for i := range x {
				x[i] = float32(i%7) - 3
			}
			y := make([]float32, sh.m)
			b.SetBytes(int64(len(a)) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec32(sh.m, sh.n, a, sh.n, x, y)
			}
		})
	}
}
