package gemm

// Portable register-blocked micro-kernels: 4×4 tiles held in sixteen scalar
// accumulators, fully unrolled over the tile so the inner loop does 16
// multiply-adds per 8 loads with no stores to C until the end. These are
// the fallback when no SIMD kernel is available for the host. There is
// deliberately no value-dependent shortcut (e.g. skipping zero
// multiplicands): 0·NaN must stay NaN.

// Micro-kernel geometry and implementation, selected at init. A kernel
// computes C[0:mr][0:nr] += Ap·Bp from packed micro-panels, where
// Ap[p*mr+r] = op(A)[r][p] and Bp[p*nr+c] = op(B)[p][c], and C has row
// stride ldc.
var (
	mr32, nr32 = 4, 4
	mr64, nr64 = 4, 4
	kern32     = kernelGo32
	kern64     = kernelGo64
	kernelName = "portable-go"
	avxFMA     bool
)

// KernelName identifies the kernels selected at init, in the order init
// tries them:
//   - "avx512f": the 14×32 AVX-512F sgemm micro-kernel for float32 GEMM,
//     AVX+FMA assembly for float64 GEMM and MatVec (amd64 with AVX-512F and
//     the OS saving zmm state);
//   - "avx-fma": AVX+FMA assembly for every GEMM and MatVec kernel (amd64
//     with AVX and FMA);
//   - "portable-go": the Go kernels, on every other host and whenever
//     TFHPC_NOSIMD is set.
func KernelName() string { return kernelName }

// HasAVXFMA reports whether this package runs AVX+FMA assembly: the host
// has AVX and FMA, the OS saves ymm state and TFHPC_NOSIMD is unset. It is
// fixed at init; other packages' AVX kernels (internal/fft) select on it.
func HasAVXFMA() bool { return avxFMA }

func kernelGo32(kc int, ap, bp []float32, c []float32, ldc int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	for p := 0; p < kc; p++ {
		a := ap[4*p : 4*p+4 : 4*p+4]
		b := bp[4*p : 4*p+4 : 4*p+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
}

func kernelGo64(kc int, ap, bp []float64, c []float64, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for p := 0; p < kc; p++ {
		a := ap[4*p : 4*p+4 : 4*p+4]
		b := bp[4*p : 4*p+4 : 4*p+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
}
