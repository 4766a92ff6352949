package cg

import (
	"fmt"

	"tfhpc/internal/cluster"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// RealOptions tune an actual run.
type RealOptions struct {
	// CheckpointPath, when set, saves solver state every CheckpointEvery
	// iterations (and on completion).
	CheckpointPath  string
	CheckpointEvery int
	// Resume restarts from CheckpointPath instead of initialising.
	Resume bool
}

// RealResult is the outcome of a real solve.
type RealResult struct {
	X            *tensor.Tensor // solution vector
	Iters        int
	ResidualNorm float64
	Converged    bool // ‖r‖ fell below Tol (or to 0) within MaxIters
	Seconds      float64
	Gflops       float64
}

// graphID identifies CG checkpoints.
func graphID(cfg Config) string { return fmt.Sprintf("cg:n%d:w%d", cfg.N, cfg.Workers) }

// group names the solver's collective group on every task.
const group = "cg"

// stateVars are the variables one iteration hands the next: a checkpoint
// holds them for every worker, with ‖r‖².
var stateVars = []string{"x", "r", "p"}

// initTargets load a worker's variables from the init/<v> feeds.
var initTargets = []string{"assign/A", "assign/x", "assign/r", "assign/p"}

// buildWorker constructs worker w's compute graph: the allgather of the
// search direction and the two scalar allreduces ride collective ops in the
// graph itself (ring collectives replacing the bespoke two-queue gather
// service and central reducers of the parameter-server formulation), around
// the block matvec, local dot products and vector updates. State lives in
// variables prefixed w<w>/, loaded by one Run of initTargets from the
// init/<v> placeholders; init/A is donated, so a task in this process keeps
// the fed block of A itself. A non-empty device places every node on that
// device spec.
func buildWorker(cfg Config, w int, device string) *graph.Graph {
	rows := cfg.RowsPerWorker()
	begin := w * rows
	pre := fmt.Sprintf("w%d/", w)
	g := graph.New()

	build := func() {
		alphaPH := g.Placeholder("alpha", tensor.Float64, nil)
		betaPH := g.Placeholder("beta", tensor.Float64, nil)

		aVar := g.AddNamedOp("A", "Variable", graph.Attrs{"var_name": pre + "A"})
		xVar := g.AddNamedOp("x", "Variable", graph.Attrs{"var_name": pre + "x"})
		rVar := g.AddNamedOp("r", "Variable", graph.Attrs{"var_name": pre + "r"})
		pVar := g.AddNamedOp("p", "Variable", graph.Attrs{"var_name": pre + "p"})

		// Stage 1: allgather p, then q = A·p_full on the GPU; the α
		// denominator p·q is a local dot allreduced over the ring. The
		// collective keys ("p_full", "pq_sum") are node names, identical on
		// every worker by construction.
		pFull := g.AddNamedOp("p_full", "AllGather", graph.Attrs{"group": group, "key": "p_full"}, pVar)
		var q *graph.Node
		g.WithDevice("/device:GPU:0", func() {
			q = g.AddNamedOp("q", "MatVec", nil, aVar, pFull)
		})
		g.AddNamedOp("save_q", "Assign", graph.Attrs{"var_name": pre + "q"}, q)
		pSlice := g.AddNamedOp("p_slice", "SliceRows",
			graph.Attrs{"begin": begin, "size": rows}, pFull)
		partialPQ := g.AddNamedOp("partial_pq", "Dot", nil, pSlice, q)
		g.AddNamedOp("pq_sum", "AllReduce", graph.Attrs{"group": group, "key": "pq_sum"}, partialPQ)

		// Stage 2: x += α·p ; r -= α·q ; ‖r‖² allreduced.
		qVar := g.AddNamedOp("q_read", "Variable", graph.Attrs{"var_name": pre + "q"})
		xNew := g.AddNamedOp("x_new", "Axpy", nil, alphaPH, pVar, xVar)
		g.AddNamedOp("save_x", "Assign", graph.Attrs{"var_name": pre + "x"}, xNew)
		negAlpha := g.AddNamedOp("neg_alpha", "Neg", nil, alphaPH)
		rNew := g.AddNamedOp("r_new", "Axpy", nil, negAlpha, qVar, rVar)
		saveR := g.AddNamedOp("save_r", "Assign", graph.Attrs{"var_name": pre + "r"}, rNew)
		prr := g.AddNamedOp("partial_rr", "Dot", nil, rNew, rNew)
		prr.AddControlDep(saveR)
		g.AddNamedOp("rr_sum", "AllReduce", graph.Attrs{"group": group, "key": "rr_sum"}, prr)

		// Stage 3: p = r + β·p.
		pNew := g.AddNamedOp("p_new", "Axpy", nil, betaPH, pVar, rVar)
		g.AddNamedOp("save_p", "Assign", graph.Attrs{"var_name": pre + "p"}, pNew)

		g.AddNamedOp("assign/A", "Assign", graph.Attrs{"var_name": pre + "A"},
			g.DonatedPlaceholder("init/A", tensor.Float64, nil))
		for _, v := range stateVars {
			g.AddNamedOp("assign/"+v, "Assign", graph.Attrs{"var_name": pre + v},
				g.Placeholder("init/"+v, tensor.Float64, nil))
		}
	}
	if device != "" {
		g.WithDevice(device, build)
	} else {
		build()
	}
	return g
}

// iterOut is one worker driver's outcome.
type iterOut struct {
	rr   float64
	err  error
	iter int
}

// driveWorker runs iterations from..to-1 of one worker against its session,
// stopping early once ‖r‖² has converged: per iteration one Run per stage,
// with α and β computed from the allreduced scalars exactly like every other
// worker (collectives return identical bytes on all ranks, so the replicas
// never diverge and all stop at the same iteration).
func driveWorker(cfg Config, sess *session.Session, from, to int, rr float64) iterOut {
	out := iterOut{rr: rr, iter: from}
	for iter := from; iter < to && !cfg.converged(out.rr); iter++ {
		fetched, err := sess.Run(nil, []string{"pq_sum"}, []string{"save_q"})
		if err != nil {
			return iterOut{err: err, iter: iter}
		}
		alpha := out.rr / fetched[0].ScalarFloat()

		fetched, err = sess.Run(map[string]*tensor.Tensor{
			"alpha": tensor.ScalarF64(alpha),
		}, []string{"rr_sum"}, []string{"save_x", "save_r"})
		if err != nil {
			return iterOut{err: err, iter: iter}
		}
		rrNew := fetched[0].ScalarFloat()
		beta := rrNew / out.rr

		if _, err := sess.Run(map[string]*tensor.Tensor{
			"beta": tensor.ScalarF64(beta),
		}, nil, []string{"save_p"}); err != nil {
			return iterOut{err: err, iter: iter}
		}
		out = iterOut{rr: rrNew, iter: iter + 1}
	}
	return out
}

// RunReal solves A·x = b on a cluster of cfg.Workers tasks it starts in
// this process and closes before it returns (cluster.RunLocal): it is
// RunCluster over that cluster, so each worker's graph runs in the driver's
// own session against its task's resources, and the ring collectives hand
// chunks between the tasks' hubs. Under TFHPC_NO_SHM=1 the same tasks are
// reached over loopback rpc instead. A must be SPD. RunReal reads a and b
// for the duration of the call and does not copy A: each worker's A block
// is a view of a, so neither may change until it returns.
func RunReal(cfg Config, a, b *tensor.Tensor, opts RealOptions) (res *RealResult, err error) {
	err = cluster.RunLocal(cfg.Workers, func(peers *cluster.Peers) error {
		res, err = RunCluster(cfg, a, b, peers, ClusterOptions{RealOptions: opts})
		return err
	})
	return res, err
}
