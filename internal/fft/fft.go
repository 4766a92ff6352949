// Package fft is the spectral-compute engine behind the runtime's FFT
// kernels, mirroring the internal/gemm architecture: cached per-size plans
// (bit-reversal permutation + twiddle tables, computed once and shared
// through a concurrent plan cache) feed fused radix-4/radix-8 butterfly
// passes with a radix-2 cleanup stage. Transforms of 2^21 points and up
// (fourStepMin, the measured crossover) switch to a four-step (Bailey)
// decomposition — √n×√n sub-FFTs, a twiddle multiply and blocked transposes
// — whose row passes fan out across the shared internal/gemm worker pool;
// below it a transform runs on one core, and callers with many run them
// side by side.
//
// On top of the core complex transform the package offers batched
// transforms (many rows in one call), 2-D transforms, real-input
// RFFT/IRFFT via the packed-complex trick (~2× over a complex FFT of the
// same real signal), and per-size twiddle tables for consumers that combine
// sub-transforms (ForwardTwiddles; the distributed FFT's one-pass tile
// merge).
//
// All lengths are powers of two, matching the paper's FFT workload.
package fft

import (
	"fmt"
	"math"
	"sync"

	"tfhpc/internal/gemm"
)

// fourStepMin is the transform length at which the engine switches from the
// in-cache butterfly passes to the four-step decomposition, set where the
// four-step path on the whole worker pool stops losing to the direct path
// on one core. BenchmarkFourStepCrossover, forward+inverse pairs in Gflop/s
// over three runs (2 vCPU Xeon, AVX2+FMA kernel; direct at GOMAXPROCS=1,
// four-step on 2):
//
//	size   direct, 1 core   four-step, 2 cores
//	2^17   5.7–6.8          2.0–2.7
//	2^18   3.4–4.8          2.0–2.4
//	2^19   3.6–5.5          1.8–2.9
//	2^20   2.6–5.1          1.7–3.2
//	2^21   2.4–3.6          2.2–3.0
//	2^22   2.5–3.2          2.0–3.4
//
// Up to 2^20 one core wins in every run, by 1.3–3.1×: the transposes are
// 47% of four-step's CPU time and cost more than a second core gives back.
// From 2^21 — 32 MiB, sixteen times the L2 — the direct passes run at DRAM
// speed and the two paths are level within the runs' spread. So a lone
// transform below 2^21 stays on one core, and a caller with many (the
// distributed FFT's workers) runs them side by side. The crossover is a
// constant, not a timed trial at plan time: the two paths round
// differently, and a per-process pick would give one input different bits
// from run to run.
const fourStepMin = 1 << 21

// Plan holds everything precomputed for one transform size: the
// bit-reversal permutation, forward and inverse twiddle tables, and the
// butterfly pass schedule. Plans are immutable after construction and safe
// for concurrent use; obtain them from PlanFor so each size is built once.
type Plan struct {
	n     int
	log2n int
	// roots[k] = exp(-2πi·k/n) for k < n/2; rootsInv holds the conjugates.
	roots    []complex128
	rootsInv []complex128
	// schedule lists the radix of each butterfly pass, first to last. The
	// cleanup radix-2 or radix-4 pass (if any) runs first, while blocks are
	// shortest; every later pass is radix-8.
	schedule []int
	// stages[i], when non-nil, is pass i's packed twiddle table for the
	// vector kernel (built only when one is selected; see kernel_go.go).
	stages [][]complex128
	// perm is the bit-reversal permutation, built lazily: plans above
	// fourStepMin only ever run the four-step path, which permutes inside
	// its sub-plans and never at the top level.
	permOnce sync.Once
	perm     []int32
}

// plans caches one *Plan per size; PlanFor is the only constructor.
var plans sync.Map // int -> *Plan

// PlanFor returns the cached plan for an n-point transform, building it on
// first use. n must be a positive power of two.
func PlanFor(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a positive power of two", n)
	}
	if p, ok := plans.Load(n); ok {
		return p.(*Plan), nil
	}
	p := newPlan(n)
	if prev, loaded := plans.LoadOrStore(n, p); loaded {
		return prev.(*Plan), nil
	}
	return p, nil
}

// mustPlan is PlanFor for lengths already known to be powers of two.
func mustPlan(n int) *Plan {
	p, err := PlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	for v := n; v > 1; v >>= 1 {
		p.log2n++
	}
	p.roots = make([]complex128, n/2)
	p.rootsInv = make([]complex128, n/2)
	for k := range p.roots {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.roots[k] = complex(c, s)
		p.rootsInv[k] = complex(c, -s)
	}
	// Pass schedule: radix-8 does three butterfly levels per memory pass,
	// so prefer it; a single radix-2 or radix-4 cleanup pass first absorbs
	// log2(n) mod 3.
	t := p.log2n
	switch t % 3 {
	case 1:
		p.schedule = append(p.schedule, 2)
		t--
	case 2:
		p.schedule = append(p.schedule, 4)
		t -= 2
	}
	for ; t > 0; t -= 3 {
		p.schedule = append(p.schedule, 8)
	}
	if radix8Vec != nil {
		p.buildStageTables()
	}
	return p
}

// Len reports the transform size the plan was built for.
func (p *Plan) Len() int { return p.n }

// twiddles caches ForwardTwiddles tables for sizes no plan exists for.
var twiddles sync.Map // int -> []complex128

// ForwardTwiddles returns the table w[k] = exp(-2πi·k/n) for k < n/2, for
// any n ≥ 2. Consumers that combine sub-transforms (the distributed-FFT
// tile merge) index it instead of recomputing trigonometry per element.
// The table is shared from the plan cache when a plan for n already exists,
// and otherwise built once per size into a twiddle cache beside it —
// twiddle-only consumers must not force full plans (inverse tables, packed
// kernel stage tables) into the process-wide cache for sizes nothing ever
// transforms. The returned slice is shared and must not be modified.
func ForwardTwiddles(n int) []complex128 {
	if p, ok := plans.Load(n); ok {
		return p.(*Plan).roots
	}
	if tw, ok := twiddles.Load(n); ok {
		return tw.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	prev, _ := twiddles.LoadOrStore(n, tw)
	return prev.([]complex128)
}

// bitrev builds (once) and returns the bit-reversal permutation.
func (p *Plan) bitrev() []int32 {
	p.permOnce.Do(func() {
		perm := make([]int32, p.n)
		for i, j := 0, 0; i < p.n; i++ {
			perm[i] = int32(j)
			mask := p.n >> 1
			for ; j&mask != 0; mask >>= 1 {
				j &^= mask
			}
			j |= mask
		}
		p.perm = perm
	})
	return p.perm
}

// Transform runs the planned in-place transform over a, forward or inverse.
// The inverse includes the 1/n normalisation. len(a) must equal Len().
func (p *Plan) Transform(a []complex128, inverse bool) error {
	if len(a) != p.n {
		return fmt.Errorf("fft: input length %d does not match plan size %d", len(a), p.n)
	}
	p.transform(a, inverse)
	return nil
}

func (p *Plan) transform(a []complex128, inverse bool) {
	if p.n == 1 {
		return
	}
	// The four-step decomposition is the parallel path: its transposes and
	// per-row sub-FFTs spread across the worker pool, but on a single
	// worker that extra data movement only costs, so large transforms stay
	// on the in-cache butterfly passes there.
	if p.n >= fourStepMin && gemm.Workers() > 1 {
		p.fourStep(a, inverse)
		return
	}
	p.direct(a, inverse)
}

// direct is the in-cache path: bit-reversal permutation followed by the
// scheduled butterfly passes.
func (p *Plan) direct(a []complex128, inverse bool) {
	roots := p.roots
	if inverse {
		roots = p.rootsInv
	}
	perm := p.bitrev()
	for i, r := range perm {
		if int32(i) < r {
			a[i], a[r] = a[r], a[i]
		}
	}
	q := 1
	for i, radix := range p.schedule {
		switch radix {
		case 2:
			radix2Pass(a, q, roots, p.n)
		case 4:
			radix4Pass(a, q, roots, p.n)
		case 8:
			if p.stages != nil && p.stages[i] != nil {
				radix8Vec(a, p.n/(8*q), q, p.stages[i], inverse)
			} else {
				radix8Pass(a, q, roots, p.n)
			}
		}
		q *= radix
	}
	if inverse {
		scale(a, 1/float64(p.n))
	}
}

func scale(a []complex128, s float64) {
	c := complex(s, 0)
	for i := range a {
		a[i] *= c
	}
}

// Forward runs an in-place forward transform through the plan cache.
func Forward(a []complex128) error {
	if len(a) == 0 {
		return nil
	}
	p, err := PlanFor(len(a))
	if err != nil {
		return err
	}
	return p.Transform(a, false)
}

// Inverse runs an in-place inverse transform (with 1/n normalisation)
// through the plan cache.
func Inverse(a []complex128) error {
	if len(a) == 0 {
		return nil
	}
	p, err := PlanFor(len(a))
	if err != nil {
		return err
	}
	return p.Transform(a, true)
}

// bufPool recycles scratch buffers across transforms and workers (the
// four-step work array, transpose targets, packed real inputs).
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

var workPool bufPool[complex128]
