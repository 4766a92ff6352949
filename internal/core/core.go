// Package core is the data-driven HPC programming layer — the paper's
// primary contribution, factored out of its four applications: tiled-matrix
// stores streamed from .npy files (Fig. 4), virtual-platform placements that
// realise Table I, and the strong-scaling result bookkeeping every
// experiment shares. The paper's Fig. 5 queue-based reduction service is not
// here: the apps reduce with collectives instead — matmul with an in-graph
// ReduceScatter + AllGatherV, cg and sgd with ring allreduces
// (internal/collective).
package core

import (
	"fmt"

	"tfhpc/internal/hw"
)

// Placement realises Table I on the virtual platform: it assigns gpus GPU
// engines to TensorFlow instances packed onto as few nodes as the node
// type's InstancesPerNode allows, and records which node and NUMA island
// each instance lands on (Fig. 9 topology effects follow from this).
type Placement struct {
	Cluster  *hw.Cluster
	NodeType *hw.NodeType
	// Instance i runs on Node[i] using GPU engine EngineOf[i] of that node,
	// which sits on NUMA island IslandOf[i].
	Node     []int
	EngineOf []int
	IslandOf []int
	NumNodes int
}

// NewPlacement packs `instances` TensorFlow instances (one GPU engine each)
// onto nodes of the given type.
func NewPlacement(c *hw.Cluster, nt *hw.NodeType, instances int) (*Placement, error) {
	if instances <= 0 {
		return nil, fmt.Errorf("core: need a positive instance count")
	}
	per := nt.InstancesPerNode
	p := &Placement{Cluster: c, NodeType: nt}
	for i := 0; i < instances; i++ {
		node := i / per
		local := i % per
		engine := local % nt.GPUEngines
		p.Node = append(p.Node, node)
		p.EngineOf = append(p.EngineOf, engine)
		p.IslandOf = append(p.IslandOf, nt.GPUIslandOf[engine])
	}
	p.NumNodes = (instances + per - 1) / per
	return p, nil
}

// Gflops converts (flops, seconds) to the Gflop/s the paper reports.
func Gflops(flops float64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / seconds / 1e9
}

// MatMulFlops is the paper's estimate for an N×N matmul: 2N³ − N².
func MatMulFlops(n int) float64 {
	fn := float64(n)
	return 2*fn*fn*fn - fn*fn
}

// CGFlops is the paper's estimate for the CG solver: iters × 2 × N².
func CGFlops(n, iters int) float64 {
	fn := float64(n)
	return float64(iters) * 2 * fn * fn
}

// FFTFlops is the paper's estimate for an N-point FFT: 5 N log₂ N.
func FFTFlops(n int) float64 {
	fn := float64(n)
	log2 := 0.0
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	return 5 * fn * log2
}

// ScalingPoint is one (GPUs, Gflop/s) measurement of a strong-scaling curve.
type ScalingPoint struct {
	GPUs   int
	Gflops float64
}

// Speedup returns the ratio between consecutive scaling points, e.g. the
// paper's "2× from two to four GPUs".
func Speedup(points []ScalingPoint, fromGPUs, toGPUs int) (float64, error) {
	var from, to float64
	for _, p := range points {
		if p.GPUs == fromGPUs {
			from = p.Gflops
		}
		if p.GPUs == toGPUs {
			to = p.Gflops
		}
	}
	if from == 0 || to == 0 {
		return 0, fmt.Errorf("core: missing scaling points %d->%d", fromGPUs, toGPUs)
	}
	return to / from, nil
}
