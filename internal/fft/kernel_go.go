package fft

// Kernel selection, mirroring internal/gemm: on amd64 hosts where
// gemm.HasAVXFMA() holds (CPUID-gated, false under TFHPC_NOSIMD=1), the
// radix-8 butterfly pass runs a hand-written vectorised kernel over
// per-stage packed twiddle tables; everywhere else the portable
// complex-arithmetic passes in kernels.go are used.
var (
	// radix8Vec, when non-nil, runs one radix-8 butterfly pass over
	// `blocks` blocks of 8·q points using the stage's packed twiddle table
	// (see Plan.buildStageTables); conj selects the inverse transform.
	radix8Vec  func(a []complex128, blocks, q int, tw []complex128, conj bool)
	kernelName = "portable-go"
)

// KernelName identifies the butterfly kernel implementation selected at
// init ("avx-fma" on capable amd64 hosts, "portable-go" otherwise).
func KernelName() string { return kernelName }

// buildStageTables packs, for every vectorisable radix-8 pass, the seven
// twiddle families of each butterfly into one contiguous stream in
// evaluation order: [w1 w2a w2b w3a w3b w3c w3d] as (j, j+1) pairs, so the
// vector kernel reads 224 bytes sequentially per butterfly pair instead of
// gathering strided root-table entries. Only plans on the in-cache direct
// path (< fourStepMin) carry tables; the four-step path reaches them
// through its sub-plans.
func (p *Plan) buildStageTables() {
	p.stages = make([][]complex128, len(p.schedule))
	q := 1
	for i, radix := range p.schedule {
		if radix == 8 && q >= 2 {
			s2, s4, s8 := p.n/(2*q), p.n/(4*q), p.n/(8*q)
			tbl := make([]complex128, 14*(q/2))
			idx := 0
			for j := 0; j < q; j += 2 {
				for _, f := range [7][2]int{
					{j, s2},
					{j, s4}, {j + q, s4},
					{j, s8}, {j + q, s8}, {j + 2*q, s8}, {j + 3*q, s8},
				} {
					tbl[idx] = p.roots[f[0]*f[1]]
					tbl[idx+1] = p.roots[(f[0]+1)*f[1]]
					idx += 2
				}
			}
			p.stages[i] = tbl
		}
		q *= radix
	}
}
