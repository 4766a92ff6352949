package cg

import (
	"fmt"
	"math"
	"time"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/cluster"
	"tfhpc/internal/core"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// ClusterOptions tune a solve over running task servers.
type ClusterOptions struct {
	// Job is the worker job name in the cluster spec (default "worker").
	Job string
	// RealOptions checkpoint the solve and resume it.
	RealOptions
}

// RunCluster solves A·x = b on an already-running cluster; it is the one
// CG driver. Worker w's graph is placed on /job:<job>/task:<w> and opened
// with cluster.Peers.OpenJob: a task serving in this process runs it in the
// driver's session against the task's resources, any other task as a
// registered partition. The collectives run ring steps directly between the
// tasks; the driver moves the initial blocks, the scalars, the checkpointed
// state and the solution. A task in this process keeps its block of A, a
// view of a, without a copy, so a must not change until RunCluster returns.
//
// With a CheckpointPath, every worker stops after each CheckpointEvery
// iterations while the driver saves their x, r and p with ‖r‖², and the
// state is saved once more on completion. Resume loads that state with the
// Run that otherwise loads x = 0 and r = p = b.
func RunCluster(cfg Config, a, b *tensor.Tensor, peers *cluster.Peers, opts ClusterOptions) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Rank() != 2 || a.Shape()[0] != cfg.N || a.Shape()[1] != cfg.N {
		return nil, fmt.Errorf("cg: matrix shape %v does not match N=%d", a.Shape(), cfg.N)
	}
	var ck *checkpoint.Checkpoint
	if opts.Resume {
		var err error
		if ck, err = loadCheckpoint(cfg, opts.CheckpointPath); err != nil {
			return nil, err
		}
	}
	job, err := peers.OpenJob(opts.Job, group, cfg.Workers, cluster.CollectiveOptions{},
		func(w int, device string) *graph.Graph { return buildWorker(cfg, w, device) })
	if err != nil {
		return nil, err
	}
	defer job.Close()
	sessions := job.Sessions()

	rows := cfg.RowsPerWorker()
	startIter, rr := 0, gemm.Dot64(b.F64(), b.F64())
	if ck != nil {
		startIter, rr = int(ck.Step), ck.Vars["__rr"].ScalarFloat()
	}
	for w, sess := range sessions {
		feeds := map[string]*tensor.Tensor{
			"init/A": tensor.FromF64(tensor.Shape{rows, cfg.N}, a.F64()[w*rows*cfg.N:(w+1)*rows*cfg.N]),
		}
		if ck != nil {
			for _, v := range stateVars {
				feeds["init/"+v] = ck.Vars[stateName(w, v)]
			}
		} else {
			bSlice := tensor.FromF64(tensor.Shape{rows}, b.F64()[w*rows:(w+1)*rows])
			feeds["init/x"], feeds["init/r"], feeds["init/p"] = tensor.New(tensor.Float64, rows), bSlice, bSlice
		}
		if _, err := sess.Run(feeds, nil, initTargets); err != nil {
			return nil, fmt.Errorf("cg: init worker %d: %w", w, err)
		}
	}

	// Segments end at each checkpoint, where every worker has stopped; the
	// workers stop alike, at the same iteration with the same ‖r‖².
	start := time.Now()
	iter := startIter
	outs := make([]iterOut, cfg.Workers)
	for iter < cfg.MaxIters && !cfg.converged(rr) {
		to := cfg.MaxIters
		if opts.CheckpointPath != "" && opts.CheckpointEvery > 0 {
			to = min(to, (iter/opts.CheckpointEvery+1)*opts.CheckpointEvery)
		}
		if err := job.Each(func(w int, sess *session.Session) error {
			outs[w] = driveWorker(cfg, sess, iter, to, rr)
			return outs[w].err
		}); err != nil {
			return nil, err
		}
		iter, rr = outs[0].iter, outs[0].rr
		if iter < cfg.MaxIters && !cfg.converged(rr) {
			if err := saveCheckpoint(cfg, sessions, opts.CheckpointPath, iter, rr); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start).Seconds()

	x := tensor.New(tensor.Float64, cfg.N)
	for w, sess := range sessions {
		xw, err := sess.Run(nil, []string{"x"}, nil)
		if err != nil {
			return nil, err
		}
		copy(x.F64()[w*rows:(w+1)*rows], xw[0].F64())
	}
	if opts.CheckpointPath != "" {
		if err := saveCheckpoint(cfg, sessions, opts.CheckpointPath, iter, rr); err != nil {
			return nil, err
		}
	}
	return &RealResult{
		X:            x,
		Iters:        iter,
		ResidualNorm: math.Sqrt(rr),
		Converged:    cfg.converged(rr),
		Seconds:      elapsed,
		Gflops:       core.Gflops(core.CGFlops(cfg.N, iter-startIter), elapsed),
	}, nil
}

// stateName is the checkpoint's name for worker w's variable v.
func stateName(w int, v string) string { return fmt.Sprintf("w%d/%s", w, v) }

// saveCheckpoint fetches every worker's x, r and p through its session and
// saves them with ‖r‖² as the state after iteration step.
func saveCheckpoint(cfg Config, sessions []*session.Session, path string, step int, rr float64) error {
	ck := &checkpoint.Checkpoint{
		GraphID: graphID(cfg),
		Step:    int64(step),
		Vars:    map[string]*tensor.Tensor{"__rr": tensor.ScalarF64(rr)},
	}
	for w, sess := range sessions {
		vals, err := sess.Run(nil, stateVars, nil)
		if err != nil {
			return fmt.Errorf("cg: checkpoint worker %d: %w", w, err)
		}
		for i, v := range stateVars {
			ck.Vars[stateName(w, v)] = vals[i]
		}
	}
	return ck.Save(path)
}

// loadCheckpoint reads a checkpoint of cfg's solve.
func loadCheckpoint(cfg Config, path string) (*checkpoint.Checkpoint, error) {
	ck, err := checkpoint.Load(path)
	if err != nil {
		return nil, fmt.Errorf("cg: resume: %w", err)
	}
	if ck.GraphID != graphID(cfg) {
		return nil, fmt.Errorf("cg: checkpoint is for %q, want %q", ck.GraphID, graphID(cfg))
	}
	if rr := ck.Vars["__rr"]; rr == nil || rr.NumElements() != 1 || ck.Step < 0 {
		return nil, fmt.Errorf("cg: checkpoint missing residual state")
	}
	return ck, nil
}
