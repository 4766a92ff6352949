//go:build amd64

package gemm

import "os"

// CPUID leaf 1 ECX and leaf 7 EBX feature bits, and XCR0 state bits, used
// to gate the AVX and AVX-512 micro-kernels.
const (
	cpuidFMA      = 1 << 12
	cpuidOSXSAVE  = 1 << 27
	cpuidAVX      = 1 << 28
	cpuid7AVX512F = 1 << 16
	xcr0SSE       = 1 << 1
	xcr0AVX       = 1 << 2
	xcr0ZMM       = 1<<5 | 1<<6 | 1<<7 // opmask, ZMM0-15 upper halves, ZMM16-31
)

// Implemented in kernel_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func sgemm6x16(kc int64, ap, bp, c *float32, ldc int64)

//go:noescape
func sgemm14x32(kc int64, ap, bp, c *float32, ldc int64)

//go:noescape
func dgemm6x8(kc int64, ap, bp, c *float64, ldc int64)

//go:noescape
func matvec32x8(n int64, a *float32, lda int64, x, y *float32)

//go:noescape
func matvec64x8(n int64, a *float64, lda int64, x, y *float64)

// hasAVXFMA reports whether the host CPU supports the AVX+FMA micro-kernels
// and the OS preserves ymm state across context switches.
func hasAVXFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&cpuidFMA == 0 || ecx&cpuidAVX == 0 || ecx&cpuidOSXSAVE == 0 {
		return false
	}
	lo, _ := xgetbv()
	return lo&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
}

// hasAVX512F reports whether the host also supports AVX-512F and the OS
// preserves the zmm and opmask state.
func hasAVX512F() bool {
	if !hasAVXFMA() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	lo, _ := xgetbv()
	return ebx&cpuid7AVX512F != 0 && lo&xcr0ZMM == xcr0ZMM
}

func kernelAVX32(kc int, ap, bp []float32, c []float32, ldc int) {
	sgemm6x16(int64(kc), &ap[0], &bp[0], &c[0], int64(ldc))
}

func kernelAVX512(kc int, ap, bp []float32, c []float32, ldc int) {
	sgemm14x32(int64(kc), &ap[0], &bp[0], &c[0], int64(ldc))
}

func kernelAVX64(kc int, ap, bp []float64, c []float64, ldc int) {
	dgemm6x8(int64(kc), &ap[0], &bp[0], &c[0], int64(ldc))
}

// matVec32AVX and matVec64AVX run the rows of [lo, hi) eight at a time
// through the assembly kernels and the remainder through the portable loop.
// The kernels read A, x and y unchecked, so each call first indexes the
// last element it will touch, panicking where the portable loop would.
func matVec32AVX(lo, hi, n int, a []float32, lda int, x, y []float32) {
	if n > 0 {
		_ = x[n-1]
		for ; lo+8 <= hi; lo += 8 {
			_ = a[(lo+7)*lda+n-1]
			_ = y[lo+7]
			matvec32x8(int64(n), &a[lo*lda], int64(lda), &x[0], &y[lo])
		}
	}
	matVec32Go(lo, hi, n, a, lda, x, y)
}

func matVec64AVX(lo, hi, n int, a []float64, lda int, x, y []float64) {
	if n > 0 {
		_ = x[n-1]
		for ; lo+8 <= hi; lo += 8 {
			_ = a[(lo+7)*lda+n-1]
			_ = y[lo+7]
			matvec64x8(int64(n), &a[lo*lda], int64(lda), &x[0], &y[lo])
		}
	}
	matVec64Go(lo, hi, n, a, lda, x, y)
}

func init() {
	if os.Getenv("TFHPC_NOSIMD") != "" || !hasAVXFMA() {
		return
	}
	avxFMA = true
	mr32, nr32, kern32 = 6, 16, kernelAVX32
	mr64, nr64, kern64 = 6, 8, kernelAVX64
	matVec32Rows, matVec64Rows = matVec32AVX, matVec64AVX
	kernelName = "avx-fma"
	if hasAVX512F() {
		mr32, nr32, kern32 = 14, 32, kernelAVX512
		kernelName = "avx512f"
	}
}
