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

	"tfhpc/internal/collective"
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
	// tensors (0/1 = one tensor, the classic graph). Multi-tensor mode is
	// the Horovod shape — one gradient allreduce per parameter tensor, all
	// dispatched concurrently by the executor — and switches the loss
	// reduction to the double-buffered async handles, so step k's loss
	// collective overlaps step k's update and step k+1's forward pass.
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

// multiTensor reports whether the multi-tensor graph (and its async loss
// double-buffering) is in effect.
func (c Config) multiTensor() bool { return c.paramTensors() > 1 }

// chunkBounds splits d weights into T near-equal parameter tensors using
// the collective engine's segment layout (first d%T tensors one element
// larger), so the weight split mirrors how the engine itself shards.
func chunkBounds(d, T, t int) (lo, hi int) {
	return collective.SegBounds(d, T, t)
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

// buildWorker constructs worker w's training graph. Per step:
//
//	resid  = X·w − y                     (local)
//	g_sum  = allreduce( Xᵀ·resid )       (ring/doubling, the Horovod step)
//	loss   = allreduce( resid·resid )/M  (ordered after g_sum)
//	w     −= lr · (2/M) · g_sum          (identical on every replica)
//
// The two allreduces share the group, so a control edge fixes their issue
// order — the executor would otherwise race them and ranks could disagree.
// group names the collective membership; device places the nodes (cluster).
//
// In multi-tensor mode (ParamTensors > 1) the weight vector splits into T
// parameter tensors with one gradient allreduce each — plain AllReduce
// nodes, or AllReduceFused when cfg.Fuse routes them through the fusion
// buffer so the executor's concurrent dispatch coalesces them into one
// pass. The per-tensor chains are independent, so tensor t's weight update
// overlaps tensor u's reduction, and the loss moves to double-buffered
// AllReduceStart/AllReduceJoin handles (even/odd), letting step k's loss
// collective overlap step k's update and step k+1's forward pass; the
// driver fetches each loss one step late and drains the last after the
// loop.
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
		if cfg.multiTensor() {
			buildMultiTensor(cfg, g, pre, group)
			return
		}
		lrPH := g.Placeholder("lr", tensor.Float64, nil)
		xVar := g.AddNamedOp("X", "Variable", graph.Attrs{"var_name": pre + "X"})
		xtVar := g.AddNamedOp("Xt", "Variable", graph.Attrs{"var_name": pre + "Xt"})
		yVar := g.AddNamedOp("y", "Variable", graph.Attrs{"var_name": pre + "y"})
		wVar := g.AddNamedOp("w", "Variable", graph.Attrs{"var_name": pre + "w"})

		var pred *graph.Node
		g.WithDevice("/device:GPU:0", func() {
			pred = g.AddNamedOp("pred", "MatVec", nil, xVar, wVar)
		})
		resid := g.AddNamedOp("resid", "Sub", nil, pred, yVar)
		var gLocal *graph.Node
		g.WithDevice("/device:GPU:0", func() {
			gLocal = g.AddNamedOp("g_local", "MatVec", nil, xtVar, resid)
		})
		gradOp := "AllReduce"
		if cfg.Fuse {
			gradOp = "AllReduceFused"
		}
		gSum := g.AddNamedOp("g_sum", gradOp, graph.Attrs{"group": group, "key": "g_sum"}, gLocal)

		partialLoss := g.AddNamedOp("partial_loss", "Dot", nil, resid, resid)
		lossSum := g.AddNamedOp("loss_sum", "AllReduce",
			graph.Attrs{"group": group, "key": "loss_sum"}, partialLoss)
		lossSum.AddControlDep(gSum)
		invM := g.Const(tensor.ScalarF64(1.0 / float64(cfg.TotalRows())))
		g.AddNamedOp("loss", "Scale", nil, invM, lossSum)

		gradScale := g.Const(tensor.ScalarF64(2.0 / float64(cfg.TotalRows())))
		gAvg := g.AddNamedOp("g_avg", "Scale", nil, gradScale, gSum)
		negLR := g.AddNamedOp("neg_lr", "Neg", nil, lrPH)
		wNew := g.AddNamedOp("w_new", "Axpy", nil, negLR, gAvg, wVar)
		g.AddNamedOp("save_w", "Assign", graph.Attrs{"var_name": pre + "w"}, wNew)
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

// buildMultiTensor emits the per-parameter-tensor graph described on
// buildWorker.
func buildMultiTensor(cfg Config, g *graph.Graph, pre, group string) {
	T := cfg.paramTensors()
	lrPH := g.Placeholder("lr", tensor.Float64, nil)
	xVar := g.AddNamedOp("X", "Variable", graph.Attrs{"var_name": pre + "X"})
	yVar := g.AddNamedOp("y", "Variable", graph.Attrs{"var_name": pre + "y"})
	wVars := make([]*graph.Node, T)
	xtVars := make([]*graph.Node, T)
	for t := 0; t < T; t++ {
		wVars[t] = g.AddNamedOp(fmt.Sprintf("w%d", t), "Variable",
			graph.Attrs{"var_name": weightVarName(pre, t)})
		xtVars[t] = g.AddNamedOp(fmt.Sprintf("Xt%d", t), "Variable",
			graph.Attrs{"var_name": fmt.Sprintf("%sXt%d", pre, t)})
	}
	wFull := g.AddNamedOp("w_full", "ConcatRows", nil, wVars...)

	var pred *graph.Node
	g.WithDevice("/device:GPU:0", func() {
		pred = g.AddNamedOp("pred", "MatVec", nil, xVar, wFull)
	})
	resid := g.AddNamedOp("resid", "Sub", nil, pred, yVar)

	gradOp := "AllReduce"
	if cfg.Fuse {
		gradOp = "AllReduceFused"
	}
	gradScale := g.Const(tensor.ScalarF64(2.0 / float64(cfg.TotalRows())))
	negLR := g.AddNamedOp("neg_lr", "Neg", nil, lrPH)
	gSums := make([]*graph.Node, T)
	for t := 0; t < T; t++ {
		var gLocal *graph.Node
		g.WithDevice("/device:GPU:0", func() {
			gLocal = g.AddNamedOp(fmt.Sprintf("g_local%d", t), "MatVec", nil, xtVars[t], resid)
		})
		gSum := g.AddNamedOp(fmt.Sprintf("g_sum%d", t), gradOp,
			graph.Attrs{"group": group, "key": fmt.Sprintf("g_sum%d", t)}, gLocal)
		gSums[t] = gSum
		gAvg := g.AddNamedOp(fmt.Sprintf("g_avg%d", t), "Scale", nil, gradScale, gSum)
		wNew := g.AddNamedOp(fmt.Sprintf("w_new%d", t), "Axpy", nil, negLR, gAvg, wVars[t])
		g.AddNamedOp(saveTarget(t), "Assign", graph.Attrs{"var_name": weightVarName(pre, t)}, wNew)
	}

	// Double-buffered async loss: even/odd handles alternate across steps,
	// so the join of step k−1 and the start of step k touch different
	// in-flight collectives within one Run.
	partialLoss := g.AddNamedOp("partial_loss", "Dot", nil, resid, resid)
	invM := g.Const(tensor.ScalarF64(1.0 / float64(cfg.TotalRows())))

	// Synchronous loss alongside the async pair, for drivers that cannot
	// carry an in-flight handle across a membership change (the elastic
	// runner): same reduction, ordered after every gradient allreduce, pruned
	// when unfetched.
	lossSync := g.AddNamedOp("loss_sum", "AllReduce",
		graph.Attrs{"group": group, "key": "loss_sum"}, partialLoss)
	for _, gSum := range gSums {
		lossSync.AddControlDep(gSum)
	}
	g.AddNamedOp("loss", "Scale", nil, invM, lossSync)

	for _, par := range []string{"even", "odd"} {
		g.AddNamedOp("loss_start_"+par, "AllReduceStart",
			graph.Attrs{"group": group, "key": "loss_" + par, "handle": "loss_" + par}, partialLoss)
		join := g.AddNamedOp("loss_join_"+par, "AllReduceJoin",
			graph.Attrs{"group": group, "handle": "loss_" + par})
		g.AddNamedOp("loss_"+par, "Scale", nil, invM, join)
	}
}

// weightVarName is parameter tensor t's variable name under worker prefix
// pre (single-tensor mode keeps the historic bare "w").
func weightVarName(pre string, t int) string { return fmt.Sprintf("%sw%d", pre, t) }

// weightNodes are the graph's weight Variable nodes, in vector order.
func weightNodes(cfg Config) []string {
	if !cfg.multiTensor() {
		return []string{"w"}
	}
	names := make([]string, cfg.paramTensors())
	for t := range names {
		names[t] = fmt.Sprintf("w%d", t)
	}
	return names
}

// saveTarget names the per-tensor assign node the driver targets each step.
func saveTarget(t int) string { return fmt.Sprintf("save_w%d", t) }

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
