//go:build amd64

package fft

import "tfhpc/internal/gemm"

// Implemented in kernel_amd64.s.
//
//go:noescape
func fftRadix8AVX(a *complex128, blocks, q int64, tw *complex128, conj int64)

func radix8AVX(a []complex128, blocks, q int, tw []complex128, conj bool) {
	c := int64(0)
	if conj {
		c = 1
	}
	fftRadix8AVX(&a[0], int64(blocks), int64(q), &tw[0], c)
}

func init() {
	// The GEMM engine already CPUID-gates AVX+FMA and honours
	// TFHPC_NOSIMD=1; the FFT butterflies need exactly the same features.
	if gemm.HasAVXFMA() {
		radix8Vec = radix8AVX
		kernelName = "avx-fma"
	}
}
