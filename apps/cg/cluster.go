package cg

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/core"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// ClusterOptions tune a distributed solve over running task servers.
type ClusterOptions struct {
	// Job is the worker job name in the cluster spec (default "worker").
	Job string
	// HealthWait bounds how long to wait for the tasks to come up (default
	// 10s) — CI boots them as separate racing processes.
	HealthWait time.Duration
}

// RunCluster solves A·x = b on an already-running cluster: worker w's graph
// is placed on /job:<job>/task:<w> and runs there as a registered partition,
// and the allgather/allreduce collectives run ring steps directly between
// the task servers — the driver only moves the initial blocks, scalars and
// the final solution.
func RunCluster(cfg Config, a, b *tensor.Tensor, peers *cluster.Peers, opts ClusterOptions) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Rank() != 2 || a.Shape()[0] != cfg.N || a.Shape()[1] != cfg.N {
		return nil, fmt.Errorf("cg: matrix shape %v does not match N=%d", a.Shape(), cfg.N)
	}
	job := opts.Job
	if job == "" {
		job = "worker"
	}
	// The ring spans every task of the job, so the driver count must match
	// exactly: a partial set of drivers would leave un-driven ranks blocking
	// the collectives until the receive timeout.
	if got := peers.Spec().NumTasks(job); got != cfg.Workers {
		return nil, fmt.Errorf("cg: %d workers requested but job %q has %d tasks (counts must match)", cfg.Workers, job, got)
	}
	wait := opts.HealthWait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	if err := peers.WaitHealthy(job, wait); err != nil {
		return nil, err
	}
	const group = "cg"
	if err := peers.InitCollective(job, group, cluster.CollectiveOptions{}); err != nil {
		return nil, err
	}

	// Worker w's graph is one partition on task w, plus an init/<v>
	// placeholder feeding an assign/<v> node per variable: the first Run
	// loads the task's A block, x=0 and r=p=b slice as feeds over the
	// task's partition stream.
	rows := cfg.RowsPerWorker()
	vars := []string{"A", "x", "r", "p"}
	sessions := make([]*session.Session, cfg.Workers)
	for w := range sessions {
		dev := fmt.Sprintf("/job:%s/task:%d", job, w)
		g := buildWorker(cfg, w, group, dev)
		g.WithDevice(dev, func() {
			for _, v := range vars {
				g.AddNamedOp("assign/"+v, "Assign", graph.Attrs{"var_name": fmt.Sprintf("w%d/%s", w, v)},
					g.Placeholder("init/"+v, tensor.Float64, nil))
			}
		})
		sess, err := session.New(g, nil, session.Options{LocalJob: "client", Remote: peers})
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		sessions[w] = sess

		bSlice := tensor.FromF64(tensor.Shape{rows}, b.F64()[w*rows:(w+1)*rows])
		if _, err := sess.Run(map[string]*tensor.Tensor{
			"init/A": tensor.FromF64(tensor.Shape{rows, cfg.N}, a.F64()[w*rows*cfg.N:(w+1)*rows*cfg.N]),
			"init/x": tensor.New(tensor.Float64, rows),
			"init/r": bSlice,
			"init/p": bSlice,
		}, nil, []string{"assign/A", "assign/x", "assign/r", "assign/p"}); err != nil {
			return nil, fmt.Errorf("cg: init worker %d: %w", w, err)
		}
	}
	rr := gemm.Dot64(b.F64(), b.F64())

	start := time.Now()
	var wg sync.WaitGroup
	results := make([]iterOut, cfg.Workers)
	for w := range sessions {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveWorker(cfg, sessions[w], w, 0, rr, nil)
			if results[w].err != nil {
				// Poison the ring on the servers so the other ranks cascade
				// the failure instead of blocking until the receive timeout.
				peers.AbortCollective(job, group)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	finalRR := rr
	itersRun := 0
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		finalRR = r.rr
		itersRun = r.iter
	}

	// Fetch and assemble the solution from the tasks.
	x := tensor.New(tensor.Float64, cfg.N)
	for w, sess := range sessions {
		xw, err := sess.Run(nil, []string{"x"}, nil)
		if err != nil {
			return nil, err
		}
		copy(x.F64()[w*rows:(w+1)*rows], xw[0].F64())
	}
	return &RealResult{
		X:            x,
		Iters:        itersRun,
		ResidualNorm: math.Sqrt(finalRR),
		Seconds:      elapsed,
		Gflops:       core.Gflops(core.CGFlops(cfg.N, itersRun), elapsed),
	}, nil
}
