package gemm

// BLAS-1/2 style kernels used by the op layer and the CG solver's dense
// products. Matrix-vector products parallelize over row blocks on the
// shared pool; dot products stay serial (they reduce to a scalar and are
// called on per-worker block sizes) but use split accumulators for ILP.
// float32 reductions accumulate in float64 for stability, matching the
// behaviour the solver layers were built against.

// Row-block forms of MatVec32/MatVec64: y[lo:hi] = A[lo:hi]·x. The
// portable loops below define the summation order: per row, four float64
// accumulators where s_k sums the products p ≡ k (mod 4) in order, tail
// products into s0, then ((s0+s1)+s2)+s3. The SIMD kernels selected at init
// (kernel_amd64.go) reproduce that order bit for bit, so a batched MatVec
// row equals Dot32/Dot64 of that row whichever kernel runs.
var (
	matVec32Rows = matVec32Go
	matVec64Rows = matVec64Go
)

// MatVec32 computes y = A·x for row-major A (m×n, leading dimension lda).
func MatVec32(m, n int, a []float32, lda int, x, y []float32) {
	ParallelFor(m, 64, func(lo, hi int) { matVec32Rows(lo, hi, n, a, lda, x, y) })
}

// MatVec64 computes y = A·x for row-major A (m×n, leading dimension lda).
func MatVec64(m, n int, a []float64, lda int, x, y []float64) {
	ParallelFor(m, 64, func(lo, hi int) { matVec64Rows(lo, hi, n, a, lda, x, y) })
}

func matVec32Go(lo, hi, n int, a []float32, lda int, x, y []float32) {
	for i := lo; i < hi; i++ {
		row := a[i*lda : i*lda+n]
		var s0, s1, s2, s3 float64
		p := 0
		for ; p+4 <= n; p += 4 {
			s0 += float64(row[p]) * float64(x[p])
			s1 += float64(row[p+1]) * float64(x[p+1])
			s2 += float64(row[p+2]) * float64(x[p+2])
			s3 += float64(row[p+3]) * float64(x[p+3])
		}
		for ; p < n; p++ {
			s0 += float64(row[p]) * float64(x[p])
		}
		y[i] = float32(s0 + s1 + s2 + s3)
	}
}

func matVec64Go(lo, hi, n int, a []float64, lda int, x, y []float64) {
	for i := lo; i < hi; i++ {
		row := a[i*lda : i*lda+n]
		var s0, s1, s2, s3 float64
		p := 0
		for ; p+4 <= n; p += 4 {
			s0 += row[p] * x[p]
			s1 += row[p+1] * x[p+1]
			s2 += row[p+2] * x[p+2]
			s3 += row[p+3] * x[p+3]
		}
		for ; p < n; p++ {
			s0 += row[p] * x[p]
		}
		y[i] = s0 + s1 + s2 + s3
	}
}

// Dot32 returns x·y accumulated in float64.
func Dot32(x, y []float32) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(x); p += 4 {
		s0 += float64(x[p]) * float64(y[p])
		s1 += float64(x[p+1]) * float64(y[p+1])
		s2 += float64(x[p+2]) * float64(y[p+2])
		s3 += float64(x[p+3]) * float64(y[p+3])
	}
	for ; p < len(x); p++ {
		s0 += float64(x[p]) * float64(y[p])
	}
	return s0 + s1 + s2 + s3
}

// Dot64 returns x·y.
func Dot64(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(x); p += 4 {
		s0 += x[p] * y[p]
		s1 += x[p+1] * y[p+1]
		s2 += x[p+2] * y[p+2]
		s3 += x[p+3] * y[p+3]
	}
	for ; p < len(x); p++ {
		s0 += x[p] * y[p]
	}
	return s0 + s1 + s2 + s3
}

// Axpy32 computes z = alpha·x + y element-wise.
func Axpy32(alpha float32, x, y, z []float32) {
	ParallelFor(len(z), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = alpha*x[i] + y[i]
		}
	})
}

// Axpy64 computes z = alpha·x + y element-wise.
func Axpy64(alpha float64, x, y, z []float64) {
	ParallelFor(len(z), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = alpha*x[i] + y[i]
		}
	})
}

// Add32 accumulates src into dst element-wise (dst += src).
func Add32(dst, src []float32) {
	ParallelFor(len(dst), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += src[i]
		}
	})
}

// transposeBlk is the square cache block of the out-of-place transpose.
const transposeBlk = 32

// Transpose32 writes dst = srcᵀ for row-major src (m×n); dst is n×m.
// Row-blocks of the source transpose in parallel.
func Transpose32(m, n int, src, dst []float32) {
	mBlocks := (m + transposeBlk - 1) / transposeBlk
	ParallelFor(mBlocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			ii := blk * transposeBlk
			iMax := min(ii+transposeBlk, m)
			for jj := 0; jj < n; jj += transposeBlk {
				jMax := min(jj+transposeBlk, n)
				for i := ii; i < iMax; i++ {
					for j := jj; j < jMax; j++ {
						dst[j*m+i] = src[i*n+j]
					}
				}
			}
		}
	})
}

// Transpose64 writes dst = srcᵀ for row-major src (m×n); dst is n×m.
func Transpose64(m, n int, src, dst []float64) {
	mBlocks := (m + transposeBlk - 1) / transposeBlk
	ParallelFor(mBlocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			ii := blk * transposeBlk
			iMax := min(ii+transposeBlk, m)
			for jj := 0; jj < n; jj += transposeBlk {
				jMax := min(jj+transposeBlk, n)
				for i := ii; i < iMax; i++ {
					for j := jj; j < jMax; j++ {
						dst[j*m+i] = src[i*n+j]
					}
				}
			}
		}
	})
}
