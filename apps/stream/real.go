package stream

import (
	"fmt"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// RealConfig drives an actual distributed run over TCP: a ps task and a
// worker task, with the worker pushing its vector into the ps variable via
// assign_add — exactly the paper's formulation, with real tensors moving
// over a real transport.
type RealConfig struct {
	// Elements is the vector length (float32), so bytes = 4·Elements.
	Elements int
	Iters    int
}

// RealResult reports the measured wall-clock bandwidth.
type RealResult struct {
	Bytes   int64
	Seconds float64
	MBps    float64
	// Final is the accumulated PS vector, for verification.
	Final *tensor.Tensor
}

// RunReal boots an in-process ps+worker cluster on loopback TCP, streams
// Iters assign_add invocations, and reports MB/s. Following the paper, the
// session run uses the operation as a *target* with no fetches, so the
// accumulated tensor is never returned to the driver during timing.
func RunReal(cfg RealConfig) (*RealResult, error) {
	if cfg.Elements <= 0 || cfg.Iters <= 0 {
		return nil, fmt.Errorf("stream: need positive elements and iters")
	}
	lc, err := cluster.StartLocal(map[string]int{"ps": 1, "worker": 1})
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	g := graph.New()
	var vec, push, init, read *graph.Node
	g.WithDevice("/job:worker/task:0/device:GPU:0", func() {
		vec = g.AddNamedOp("v", "RandomUniform", graph.Attrs{
			"dtype": tensor.Float32, "shape": tensor.Shape{cfg.Elements}, "seed": 7})
	})
	g.WithDevice("/job:ps/task:0/device:GPU:0", func() {
		init = g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "acc"},
			g.Const(tensor.New(tensor.Float32, cfg.Elements)))
		push = g.AddNamedOp("push", "AssignAdd", graph.Attrs{"var_name": "acc"}, vec)
		read = g.AddNamedOp("read", "Variable", graph.Attrs{"var_name": "acc"})
	})

	sess, err := session.New(g, nil, session.Options{
		LocalJob: "worker", LocalTask: 0, Remote: peers,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if _, err := sess.Run(nil, nil, []string{init.Name()}); err != nil {
		return nil, err
	}

	start := time.Now()
	for i := 0; i < cfg.Iters; i++ {
		// Target only — no fetch — to avoid the extra return transfer the
		// paper explicitly excludes from the measurement.
		if _, err := sess.Run(nil, nil, []string{push.Name()}); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start).Seconds()

	final, err := sess.Run(nil, []string{read.Name()}, nil)
	if err != nil {
		return nil, err
	}
	bytes := int64(cfg.Iters) * int64(cfg.Elements) * 4
	return &RealResult{
		Bytes:   bytes,
		Seconds: elapsed,
		MBps:    float64(bytes) / elapsed / 1e6,
		Final:   final[0],
	}, nil
}
