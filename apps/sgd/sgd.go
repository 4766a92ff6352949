// Package sgd is the paper's Horovod scenario as a workload: data-parallel
// synchronous SGD on a synthetic linear model. Every worker owns a shard of
// the data and a full replica of the weights; each step computes a local
// gradient, allreduces it over the ring collectives (the decentralised
// alternative to a parameter server), and applies the identical averaged
// update — so replicas stay bit-for-bit equal without ever being exchanged.
package sgd

import (
	"fmt"
	"math"

	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
)

// Config describes one training setup.
type Config struct {
	Features      int // model dimension d
	RowsPerWorker int // samples per shard
	Workers       int // data-parallel replicas
	Steps         int // full-batch gradient steps
	LR            float64
	Seed          uint64
	// Noise is the observation-noise amplitude of the synthetic labels.
	Noise float64
	// ParamTensors splits the weight vector into this many parameter
	// tensors (0 counts as 1): one gradient allreduce each, all dispatched
	// concurrently by the executor — the Horovod shape. It splits only the
	// gradient; every run double-buffers its loss (see buildWorker).
	ParamTensors int
	// Fuse routes the per-tensor gradient allreduces through the group's
	// fusion buffer: the ParamTensors concurrent posts coalesce into one
	// collective pass per step. Results are bit-identical to the unfused
	// path (both ride the same recursive-doubling tree below the picker
	// threshold) — the core smoke leg (./smoke) asserts exactly that on
	// final weights.
	Fuse bool
}

// Validate checks the setup.
func (c Config) Validate() error {
	if c.Features <= 0 || c.RowsPerWorker <= 0 || c.Workers <= 0 {
		return fmt.Errorf("sgd: need positive features, rows and workers")
	}
	if c.Steps <= 0 {
		return fmt.Errorf("sgd: need a positive step count")
	}
	if c.LR <= 0 {
		return fmt.Errorf("sgd: need a positive learning rate")
	}
	if c.ParamTensors < 0 || c.ParamTensors > c.Features {
		return fmt.Errorf("sgd: param tensors %d outside [0, %d]", c.ParamTensors, c.Features)
	}
	return nil
}

// paramTensors normalises ParamTensors (0 means one tensor).
func (c Config) paramTensors() int {
	if c.ParamTensors <= 0 {
		return 1
	}
	return c.ParamTensors
}

// TotalRows is the full dataset size across shards.
func (c Config) TotalRows() int { return c.Workers * c.RowsPerWorker }

// TrueWeights returns the generating model w* (deterministic in the seed).
func TrueWeights(cfg Config) *tensor.Tensor {
	r := tensor.NewRNG(cfg.Seed*2 + 1)
	w := make([]float64, cfg.Features)
	for i := range w {
		w[i] = r.Float64()*2 - 1
	}
	return tensor.FromF64(tensor.Shape{cfg.Features}, w)
}

// Shard generates worker w's data: X uniform in [-1,1), y = X·w* + noise.
func Shard(cfg Config, w int) (x, y *tensor.Tensor) {
	wStar := TrueWeights(cfg).F64()
	r := tensor.NewRNG(cfg.Seed + uint64(w)*7919 + 17)
	m, d := cfg.RowsPerWorker, cfg.Features
	xv := make([]float64, m*d)
	yv := make([]float64, m)
	for i := 0; i < m; i++ {
		dot := 0.0
		for j := 0; j < d; j++ {
			v := r.Float64()*2 - 1
			xv[i*d+j] = v
			dot += v * wStar[j]
		}
		yv[i] = dot + cfg.Noise*r.NormFloat64()
	}
	return tensor.FromF64(tensor.Shape{m, d}, xv),
		tensor.FromF64(tensor.Shape{m}, yv)
}

// buildWorker constructs worker w's training graph. The weight vector is T
// parameter tensors w0..w<T-1> (T = ParamTensors, 0 counting as 1), each
// with its own gradient allreduce — the Horovod shape. Per step:
//
//	resid    = X·w − y                      (local; w = w0‖…‖w<T-1>)
//	g_sum<t> = allreduce( Xt<t>·resid )     (ring/doubling, the Horovod step)
//	loss     = allreduce( resid·resid )/M
//	w<t>    −= lr · (2/M) · g_sum<t>        (identical on every replica)
//
// The gradient allreduces are plain AllReduce nodes, or AllReduceFused when
// cfg.Fuse routes them through the fusion buffer so the executor's
// concurrent dispatch coalesces them into one pass. The per-tensor chains
// are independent, so tensor t's weight update overlaps tensor u's
// reduction. The loss has two forms, each ordered after every gradient
// allreduce by control edges (they share the group). The synchronous
// "loss" is for drivers that fetch it in its own step. The double-buffered
// AllReduceStart/AllReduceJoin handles (even/odd) let step k's loss
// collective overlap step k's update and step k+1's forward pass:
// driveWorker fetches each loss one step late and drains the last after the
// loop. group names the collective membership; device places the nodes
// (cluster).
func buildWorker(cfg Config, w int, group, device string) *graph.Graph {
	return buildWorkerPre(cfg, fmt.Sprintf("w%d/", w), group, device)
}

// buildWorkerPre is buildWorker with an explicit variable-name prefix. The
// elastic runner uses generation-qualified prefixes (g<gen>/w<slot>/) so a
// task that hosts different shard sizes across memberships never collides
// with its own earlier variables.
//
// Every graph also carries a "ckpt_barrier" node — a scalar allreduce the
// driver targets in its own Run to bracket checkpoints: when it completes on
// rank 0, every rank has finished the step, so the weights read for the
// checkpoint are the group-wide consistent state. Unfetched it is pruned.
// Likewise an init/<v> placeholder feeding an assign/<v> Assign for every
// Variable node v: drivers load a replica's variables by feeding them
// (initVars), which on a cluster moves them over the task's partition
// stream.
func buildWorkerPre(cfg Config, pre, group, device string) *graph.Graph {
	g := graph.New()
	build := func() {
		g.AddNamedOp("ckpt_barrier", "AllReduce",
			graph.Attrs{"group": group, "key": "ckpt_barrier"},
			g.Const(tensor.ScalarF64(1)))
		T := cfg.paramTensors()
		lrPH := g.Placeholder("lr", tensor.Float64, nil)
		xVar := g.AddNamedOp("X", "Variable", graph.Attrs{"var_name": pre + "X"})
		yVar := g.AddNamedOp("y", "Variable", graph.Attrs{"var_name": pre + "y"})
		wVars := make([]*graph.Node, T)
		xtVars := make([]*graph.Node, T)
		for t := range T {
			wVars[t] = g.AddNamedOp(weightNode(t), "Variable", graph.Attrs{"var_name": splitVar(pre, weightNode(t), T)})
			xtVars[t] = g.AddNamedOp(xtNode(t), "Variable", graph.Attrs{"var_name": splitVar(pre, xtNode(t), T)})
		}
		// ConcatRows makes a fresh output, so one tensor feeds the forward
		// pass directly rather than be copied every step.
		wFull := wVars[0]
		if T > 1 {
			wFull = g.AddNamedOp("w_full", "ConcatRows", nil, wVars...)
		}

		var pred *graph.Node
		g.WithDevice("/device:GPU:0", func() {
			pred = g.AddNamedOp("pred", "MatVec", nil, xVar, wFull)
		})
		resid := g.AddNamedOp("resid", "Sub", nil, pred, yVar)

		gradOp := "AllReduce"
		if cfg.Fuse {
			gradOp = "AllReduceFused"
		}
		gSums := make([]*graph.Node, T)
		for t := range T {
			var gLocal *graph.Node
			g.WithDevice("/device:GPU:0", func() {
				gLocal = g.AddNamedOp(fmt.Sprintf("g_local%d", t), "MatVec", nil, xtVars[t], resid)
			})
			gSums[t] = g.AddNamedOp(fmt.Sprintf("g_sum%d", t), gradOp,
				graph.Attrs{"group": group, "key": fmt.Sprintf("g_sum%d", t)}, gLocal)
		}

		// The synchronous loss, for drivers that cannot carry an in-flight
		// handle across a membership change (the elastic runner); pruned
		// when unfetched. Emitted before the updates, it is each gradient
		// allreduce's first successor, which the work-first executor runs
		// inline.
		partialLoss := g.AddNamedOp("partial_loss", "Dot", nil, resid, resid)
		invM := g.Const(tensor.ScalarF64(1.0 / float64(cfg.TotalRows())))
		lossSum := g.AddNamedOp("loss_sum", "AllReduce",
			graph.Attrs{"group": group, "key": "loss_sum"}, partialLoss)
		for _, gSum := range gSums {
			lossSum.AddControlDep(gSum)
		}
		g.AddNamedOp("loss", "Scale", nil, invM, lossSum)

		gradScale := g.Const(tensor.ScalarF64(2.0 / float64(cfg.TotalRows())))
		negLR := g.AddNamedOp("neg_lr", "Neg", nil, lrPH)
		saves := saveTargets(cfg)
		for t, gSum := range gSums {
			gAvg := g.AddNamedOp(fmt.Sprintf("g_avg%d", t), "Scale", nil, gradScale, gSum)
			wNew := g.AddNamedOp(fmt.Sprintf("w_new%d", t), "Axpy", nil, negLR, gAvg, wVars[t])
			g.AddNamedOp(saves[t], "Assign", graph.Attrs{"var_name": wVars[t].Attr("var_name")}, wNew)
		}

		// Double-buffered async loss: even/odd handles alternate across
		// steps, so the join of step k−1 and the start of step k touch
		// different in-flight collectives within one Run. A start waits for
		// the gradient allreduces too: started beside them, its chunks
		// share their peer edges, and the benchmark's sgd step (T = 1,
		// stream edges, 2 vCPU) ran ~15% slower.
		for _, par := range []string{"even", "odd"} {
			start := g.AddNamedOp("loss_start_"+par, "AllReduceStart",
				graph.Attrs{"group": group, "key": "loss_" + par, "handle": "loss_" + par}, partialLoss)
			for _, gSum := range gSums {
				start.AddControlDep(gSum)
			}
			join := g.AddNamedOp("loss_join_"+par, "AllReduceJoin",
				graph.Attrs{"group": group, "handle": "loss_" + par})
			g.AddNamedOp("loss_"+par, "Scale", nil, invM, join)
		}
	}
	withLoaders := func() {
		build()
		for _, v := range g.Nodes() {
			if v.Op() == "Variable" {
				g.AddNamedOp("assign/"+v.Name(), "Assign", graph.Attrs{"var_name": v.Attr("var_name")},
					g.Placeholder("init/"+v.Name(), tensor.Float64, nil))
			}
		}
	}
	if device != "" {
		g.WithDevice(device, withLoaders)
	} else {
		withLoaders()
	}
	return g
}

// weightNode and xtNode name parameter tensor t's weight Variable and its
// rows of Xᵀ.
func weightNode(t int) string { return fmt.Sprintf("w%d", t) }

func xtNode(t int) string { return fmt.Sprintf("Xt%d", t) }

// splitVar names the variable behind node, a chunk of a T-way split, under
// worker prefix pre. The split is part of the name: a task keeps a
// variable's shape for its lifetime, and one task may serve runs with
// different splits.
func splitVar(pre, node string, T int) string { return fmt.Sprintf("%s%sof%d", pre, node, T) }

// saveTargets names the per-tensor weight assigns a driver targets each
// step.
func saveTargets(cfg Config) []string {
	ts := make([]string, cfg.paramTensors())
	for t := range ts {
		ts[t] = "save_" + weightNode(t)
	}
	return ts
}

// lossParity returns the even/odd suffix of a step's loss double buffer.
func lossParity(step int) string {
	if step%2 == 0 {
		return "even"
	}
	return "odd"
}

// Result is the outcome of a training run.
type Result struct {
	InitialLoss float64 // mean squared error before the first update
	FinalLoss   float64 // MSE before the last update
	WeightErr   float64 // ‖w − w*‖ / ‖w*‖ after training
	Steps       int
	Seconds     float64
	// StepSeconds is the mean wall time per step.
	StepSeconds float64
	// GradBytes is the per-step allreduce payload per worker.
	GradBytes int64
	// ReplicasEqual reports whether every worker ended with bit-identical
	// weights — the invariant synchronous allreduce SGD must preserve.
	ReplicasEqual bool
	// Weights is replica 0's final weight vector — the trained model, ready
	// to checkpoint for serving (tfsgd -checkpoint → tfserve).
	Weights *tensor.Tensor
}

// relWeightErr is ‖w − w*‖/‖w*‖.
func relWeightErr(w, wStar *tensor.Tensor) float64 {
	num, den := 0.0, 0.0
	a, b := w.F64(), wStar.F64()
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
