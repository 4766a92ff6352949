package gemm

import "sync"

// Cache blocking parameters (elements, not bytes). kcBlock keeps one packed
// B micro-panel (kc×nr) plus one A micro-panel (mr×kc) L1-resident; mcBlock
// sizes the packed A panel (mc×kc) for L2. mcBlock is a common multiple of
// every micro-kernel height (4, 6 and 14) so full blocks decompose into
// whole micro-panels.
const (
	kcBlock = 256
	mcBlock = 84
)

// bufPool recycles packing buffers across GEMM calls and workers.
type bufPool[T any] struct{ p sync.Pool }

func (b *bufPool[T]) get(n int) []T {
	if v := b.p.Get(); v != nil {
		if s := v.([]T); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

func (b *bufPool[T]) put(s []T) { b.p.Put(s) }

// Per-role pools: packed-B panels are several MB while packed-A blocks are
// tens of KB, so mixing them in one pool would let the small buffers evict
// the large ones from reuse.
var (
	apPool32 bufPool[float32]
	bpPool32 bufPool[float32]
	apPool64 bufPool[float64]
	bpPool64 bufPool[float64]
)

// Gemm32 computes C += op(A)·op(B) in float32, where op optionally
// transposes its argument. op(A) is m×k, op(B) is k×n, C is m×n. Matrices
// are row-major with leading dimensions lda/ldb/ldc (the stride between
// stored rows, which must be at least the stored row length). C must not
// alias A or B.
//
// The engine packs panels of A and B into contiguous cache-blocked buffers
// and drives a register-blocked micro-kernel over them; row-panels of C are
// computed in parallel on the shared worker pool.
func Gemm32(transA, transB bool, m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	mr, nr := mr32, nr32
	kern := kern32
	nStrips := (n + nr - 1) / nr
	for pc := 0; pc < k; pc += kcBlock {
		kc := min(kcBlock, k-pc)
		bp := bpPool32.get(nStrips * kc * nr)
		packB32(bp, b, ldb, transB, pc, kc, n, nr)
		mBlocks := (m + mcBlock - 1) / mcBlock
		ParallelFor(mBlocks, 1, func(lo, hi int) {
			ap := apPool32.get(mcBlock * kc)
			var tmpArr [14 * 32]float32 // spill tile, large enough for any mr×nr
			tmp := tmpArr[:mr*nr]
			for blk := lo; blk < hi; blk++ {
				ic := blk * mcBlock
				mc := min(mcBlock, m-ic)
				packA32(ap, a, lda, transA, ic, mc, pc, kc, mr)
				iStrips := (mc + mr - 1) / mr
				for js := 0; js < nStrips; js++ {
					bs := bp[js*kc*nr:]
					jn := min(nr, n-js*nr)
					for is := 0; is < iStrips; is++ {
						as := ap[is*kc*mr:]
						im := min(mr, mc-is*mr)
						ci, cj := ic+is*mr, js*nr
						if im == mr && jn == nr {
							kern(kc, as, bs, c[ci*ldc+cj:], ldc)
						} else {
							// Edge tile: run the kernel on a spill tile that
							// holds the valid region of C, so C gains the
							// sums through the same add as in a full tile.
							// (Adding them to a zeroed tile first turns a −0
							// sum into +0 and picks NaN payloads in another
							// order.) Which tiles are edges then never
							// changes a bit, whatever the kernel's mr×nr.
							for r := 0; r < im; r++ {
								copy(tmp[r*nr:r*nr+jn], c[(ci+r)*ldc+cj:])
							}
							kern(kc, as, bs, tmp, nr)
							for r := 0; r < im; r++ {
								copy(c[(ci+r)*ldc+cj:(ci+r)*ldc+cj+jn], tmp[r*nr:])
							}
						}
					}
				}
			}
			apPool32.put(ap)
		})
		bpPool32.put(bp)
	}
}

// Gemm64 computes C += op(A)·op(B) in float64. See Gemm32 for conventions.
func Gemm64(transA, transB bool, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	mr, nr := mr64, nr64
	kern := kern64
	nStrips := (n + nr - 1) / nr
	for pc := 0; pc < k; pc += kcBlock {
		kc := min(kcBlock, k-pc)
		bp := bpPool64.get(nStrips * kc * nr)
		packB64(bp, b, ldb, transB, pc, kc, n, nr)
		mBlocks := (m + mcBlock - 1) / mcBlock
		ParallelFor(mBlocks, 1, func(lo, hi int) {
			ap := apPool64.get(mcBlock * kc)
			var tmpArr [6 * 8]float64 // spill tile, large enough for any mr×nr
			tmp := tmpArr[:mr*nr]
			for blk := lo; blk < hi; blk++ {
				ic := blk * mcBlock
				mc := min(mcBlock, m-ic)
				packA64(ap, a, lda, transA, ic, mc, pc, kc, mr)
				iStrips := (mc + mr - 1) / mr
				for js := 0; js < nStrips; js++ {
					bs := bp[js*kc*nr:]
					jn := min(nr, n-js*nr)
					for is := 0; is < iStrips; is++ {
						as := ap[is*kc*mr:]
						im := min(mr, mc-is*mr)
						ci, cj := ic+is*mr, js*nr
						if im == mr && jn == nr {
							kern(kc, as, bs, c[ci*ldc+cj:], ldc)
						} else {
							clear(tmp)
							kern(kc, as, bs, tmp, nr)
							for r := 0; r < im; r++ {
								dst := c[(ci+r)*ldc+cj : (ci+r)*ldc+cj+jn]
								src := tmp[r*nr : r*nr+jn]
								for x := range dst {
									dst[x] += src[x]
								}
							}
						}
					}
				}
			}
			apPool64.put(ap)
		})
		bpPool64.put(bp)
	}
}

// Flops returns the floating point operations of an m×k by k×n GEMM.
func Flops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
