package cg

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/collective"
	"tfhpc/internal/core"
	"tfhpc/internal/gemm"
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
	Seconds      float64
	Gflops       float64
}

// graphID identifies CG checkpoints.
func graphID(cfg Config) string { return fmt.Sprintf("cg:n%d:w%d", cfg.N, cfg.Workers) }

// collGroup names worker w's collective-group membership in a shared
// resource store (in-process runs register one membership per worker; in
// cluster runs every task registers under its own store, so the name is the
// same on all of them).
func collGroup(w int) string { return fmt.Sprintf("cg/w%d", w) }

// buildWorker constructs worker w's compute graph: the allgather of the
// search direction and the two scalar allreduces now ride collective ops in
// the graph itself (ring collectives replacing the bespoke two-queue gather
// service and central reducers of the parameter-server formulation), around
// the block matvec, local dot products and vector updates. State lives in
// variables prefixed w<w>/ so checkpoints capture the whole solver. group
// names the collective membership; a non-empty device places every node on
// that device spec (cluster runs).
func buildWorker(cfg Config, w int, group, device string) *graph.Graph {
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

// driveWorker runs worker w's iteration loop against its session: per
// iteration one Run per stage, with α and β computed from the allreduced
// scalars exactly like every other worker (collectives return identical
// bytes on all ranks, so the replicas never diverge). checkpointEach, when
// non-nil, runs on EVERY worker at the end of each iteration — the
// checkpoint path uses it to barrier all workers around the capture, since
// the last per-iteration collective (rr_sum) does not order the stage-3
// variable writes that follow it.
func driveWorker(cfg Config, sess *session.Session, w, startIter int, rr float64,
	checkpointEach func(iter int, rr float64) error) iterOut {
	localRR := rr
	out := iterOut{rr: rr, iter: startIter}
	for iter := startIter; iter < cfg.MaxIters; iter++ {
		// An exactly-zero residual is an exact solution, whatever Tol says:
		// one more iteration would take α = 0/0. Every worker holds the same
		// allreduced ‖r‖², so all of them stop here together.
		if localRR == 0 {
			return out
		}
		fetched, err := sess.Run(nil, []string{"pq_sum"}, []string{"save_q"})
		if err != nil {
			return iterOut{err: err, iter: iter}
		}
		alpha := localRR / fetched[0].ScalarFloat()

		fetched, err = sess.Run(map[string]*tensor.Tensor{
			"alpha": tensor.ScalarF64(alpha),
		}, []string{"rr_sum"}, []string{"save_x", "save_r"})
		if err != nil {
			return iterOut{err: err, iter: iter}
		}
		rrNew := fetched[0].ScalarFloat()
		beta := rrNew / localRR
		localRR = rrNew

		if _, err := sess.Run(map[string]*tensor.Tensor{
			"beta": tensor.ScalarF64(beta),
		}, nil, []string{"save_p"}); err != nil {
			return iterOut{err: err, iter: iter}
		}
		out = iterOut{rr: localRR, iter: iter + 1}

		if checkpointEach != nil {
			if err := checkpointEach(iter+1, localRR); err != nil {
				return iterOut{err: err, iter: iter + 1}
			}
		}
		if cfg.Tol > 0 && math.Sqrt(localRR) < cfg.Tol {
			return out
		}
	}
	return out
}

// RunReal solves A·x = b with the distributed data-driven CG formulation,
// with real numerics on the host: one driver goroutine per worker, ring
// collectives between in-process hubs (NewLoopbackGroups). A must be SPD.
// RunReal reads a and b for the duration of the call and does not copy them:
// each worker's A block is a view of a, so neither may change until it
// returns.
func RunReal(cfg Config, a, b *tensor.Tensor, opts RealOptions) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Rank() != 2 || a.Shape()[0] != cfg.N || a.Shape()[1] != cfg.N {
		return nil, fmt.Errorf("cg: matrix shape %v does not match N=%d", a.Shape(), cfg.N)
	}
	rows := cfg.RowsPerWorker()
	res := session.NewResources()

	// One ring membership per worker, each rank reading its own hub.
	groups := collective.NewLoopbackGroups(cfg.Workers, collective.Options{})
	for w, grp := range groups {
		res.Colls.Register(collGroup(w), grp)
	}
	defer res.Colls.CloseAll()

	sessions := make([]*session.Session, cfg.Workers)
	for w := range sessions {
		sess, err := session.New(buildWorker(cfg, w, collGroup(w), ""), res, session.Options{})
		if err != nil {
			return nil, err
		}
		sessions[w] = sess
	}

	startIter := 0
	rr := 0.0
	if opts.Resume {
		ck, err := checkpoint.Load(opts.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("cg: resume: %w", err)
		}
		if ck.GraphID != graphID(cfg) {
			return nil, fmt.Errorf("cg: checkpoint is for %q, want %q", ck.GraphID, graphID(cfg))
		}
		if err := ck.Apply(res.Vars); err != nil {
			return nil, err
		}
		startIter = int(ck.Step)
		rrT, ok := ck.Vars["__rr"]
		if !ok {
			return nil, fmt.Errorf("cg: checkpoint missing residual state")
		}
		rr = rrT.ScalarFloat()
	} else {
		// Initialise: x=0, r=b, p=r per block. The A blocks are views of
		// a, adopted: the store is private to this call and nothing writes A.
		for w := 0; w < cfg.Workers; w++ {
			pre := fmt.Sprintf("w%d/", w)
			blockRows := a.F64()[w*rows*cfg.N : (w+1)*rows*cfg.N]
			block := tensor.FromF64(tensor.Shape{rows, cfg.N}, blockRows)
			if err := res.Vars.Get(pre + "A").Adopt(block); err != nil {
				return nil, err
			}
			bSlice := tensor.FromF64(tensor.Shape{rows}, b.F64()[w*rows:(w+1)*rows])
			res.Vars.Get(pre + "x").Assign(tensor.New(tensor.Float64, rows))
			res.Vars.Get(pre + "r").Assign(bSlice)
			res.Vars.Get(pre + "p").Assign(bSlice)
		}
		rr = gemm.Dot64(b.F64(), b.F64())
	}

	start := time.Now()
	var wg sync.WaitGroup
	results := make([]iterOut, cfg.Workers)
	for w := range sessions {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ckpt func(int, float64) error
			if opts.CheckpointPath != "" && opts.CheckpointEvery > 0 {
				// Every worker enters a barrier pair around the capture: the
				// first barrier orders all stage-3 variable writes before
				// the snapshot, the second keeps the next iteration from
				// mutating state until worker 0 finishes writing.
				grp := groups[w]
				ckpt = func(iter int, rr float64) error {
					if iter%opts.CheckpointEvery != 0 {
						return nil
					}
					if err := grp.Barrier("ckpt_enter"); err != nil {
						return err
					}
					var saveErr error
					if w == 0 {
						saveErr = saveCheckpoint(cfg, res, opts.CheckpointPath, iter, rr)
					}
					if err := grp.Barrier("ckpt_exit"); err != nil {
						return err
					}
					return saveErr
				}
			}
			results[w] = driveWorker(cfg, sessions[w], w, startIter, rr, ckpt)
			if results[w].err != nil {
				// Close this worker's ring membership: that poisons its lane
				// in every peer's hub, so peers blocked in a collective
				// cascade the failure instead of hanging.
				groups[w].Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	finalRR := rr
	itersRun := startIter
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		finalRR = r.rr
		itersRun = r.iter
	}

	// Assemble x.
	x := tensor.New(tensor.Float64, cfg.N)
	for w := 0; w < cfg.Workers; w++ {
		xw, err := res.Vars.Get(fmt.Sprintf("w%d/x", w)).Read()
		if err != nil {
			return nil, err
		}
		copy(x.F64()[w*rows:(w+1)*rows], xw.F64())
	}
	if opts.CheckpointPath != "" {
		if err := saveCheckpoint(cfg, res, opts.CheckpointPath, itersRun, finalRR); err != nil {
			return nil, err
		}
	}
	iters := itersRun - startIter
	return &RealResult{
		X:            x,
		Iters:        itersRun,
		ResidualNorm: math.Sqrt(finalRR),
		Seconds:      elapsed,
		Gflops:       core.Gflops(core.CGFlops(cfg.N, iters), elapsed),
	}, nil
}

func saveCheckpoint(cfg Config, res *session.Resources, path string, step int, rr float64) error {
	ck := checkpoint.Capture(graphID(cfg), int64(step), res.Vars)
	ck.Vars["__rr"] = tensor.ScalarF64(rr)
	return ck.Save(path)
}
