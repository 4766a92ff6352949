package sgd

import (
	"fmt"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/collective"
	"tfhpc/internal/gemm"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// collGroup names worker w's ring membership in the shared in-process store.
func collGroup(w int) string { return fmt.Sprintf("sgd/w%d", w) }

// shardTensors materialises worker w's variables: the shard, its transpose
// (packed once, so the gradient matvec streams rows), labels, and w = 0.
func shardTensors(cfg Config, w int) (x, xt, y, w0 *tensor.Tensor) {
	x, y = Shard(cfg, w)
	m, d := cfg.RowsPerWorker, cfg.Features
	xtv := make([]float64, d*m)
	gemm.Transpose64(m, d, x.F64(), xtv)
	xt = tensor.FromF64(tensor.Shape{d, m}, xtv)
	w0 = tensor.New(tensor.Float64, d)
	return
}

// workerInit lists worker w's variables for either graph shape: the
// multi-tensor graph splits Xt and w into per-parameter-tensor chunks (rows
// of Xt align with weight indices, so chunk t of Xt feeds gradient tensor
// t).
func workerInit(cfg Config, w int) []varInit {
	x, xt, y, w0 := shardTensors(cfg, w)
	if !cfg.multiTensor() {
		return []varInit{{"X", x}, {"Xt", xt}, {"y", y}, {"w", w0}}
	}
	T := cfg.paramTensors()
	m, d := cfg.RowsPerWorker, cfg.Features
	out := []varInit{{"X", x}, {"y", y}}
	xtv := xt.F64()
	for t := 0; t < T; t++ {
		lo, hi := chunkBounds(d, T, t)
		out = append(out,
			varInit{fmt.Sprintf("Xt%d", t), tensor.FromF64(tensor.Shape{hi - lo, m}, xtv[lo*m:hi*m])},
			varInit{fmt.Sprintf("w%d", t), tensor.New(tensor.Float64, hi-lo)})
	}
	return out
}

// flushTensors returns the collective fusion count trigger of one run: the
// per-step post set, so a step's gradients flush as one pass the moment the
// last one lands, with the deadline as fallback. 0 when the run does not
// fuse.
func (c Config) flushTensors() int {
	if !c.Fuse {
		return 0
	}
	return c.paramTensors()
}

// initVars loads one replica's variables in one Run: each value feeds the
// graph's init/<v> placeholder and its assign/<v> node stores it.
func initVars(sess *session.Session, inits []varInit) error {
	feeds := make(map[string]*tensor.Tensor, len(inits))
	targets := make([]string, len(inits))
	for i, v := range inits {
		feeds["init/"+v.Node] = v.Val
		targets[i] = "assign/" + v.Node
	}
	_, err := sess.Run(feeds, nil, targets)
	return err
}

// readWeights fetches one replica's weight vector, reassembled across
// parameter tensors.
func readWeights(cfg Config, sess *session.Session) (*tensor.Tensor, error) {
	chunks, err := sess.Run(nil, weightNodes(cfg), nil)
	if err != nil {
		return nil, err
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	out := tensor.New(tensor.Float64, cfg.Features)
	dst := out.F64()
	off := 0
	for _, c := range chunks {
		off += copy(dst[off:], c.F64())
	}
	return out, nil
}

// driveWorker runs one replica's training loop: per step one session Run
// fetching the allreduced loss and applying the identical weight update.
//
// Multi-tensor mode pipelines the loss: step k's Run only *starts* the loss
// allreduce (async handle, parity-alternating), and step k+1's Run joins it
// — so the loss collective for step k is on the wire while step k's weight
// assigns and step k+1's forward pass execute. A drain Run after the loop
// joins the final step's loss.
func driveWorker(cfg Config, sess *session.Session) (first, last float64, err error) {
	lr := tensor.ScalarF64(cfg.LR)
	feeds := map[string]*tensor.Tensor{"lr": lr}
	if !cfg.multiTensor() {
		for step := 0; step < cfg.Steps; step++ {
			out, err := sess.Run(feeds, []string{"loss"}, []string{"save_w"})
			if err != nil {
				return 0, 0, err
			}
			loss := out[0].ScalarFloat()
			if step == 0 {
				first = loss
			}
			last = loss
		}
		return first, last, nil
	}

	targetsBase := make([]string, cfg.paramTensors())
	for t := range targetsBase {
		targetsBase[t] = saveTarget(t)
	}
	record := func(step int, loss float64) {
		if step == 0 {
			first = loss
		}
		last = loss
	}
	for step := 0; step < cfg.Steps; step++ {
		targets := append(append([]string{}, targetsBase...), "loss_start_"+lossParity(step))
		var fetches []string
		if step > 0 {
			fetches = []string{"loss_" + lossParity(step-1)}
		}
		out, err := sess.Run(feeds, fetches, targets)
		if err != nil {
			return 0, 0, err
		}
		if step > 0 {
			record(step-1, out[0].ScalarFloat())
		}
	}
	out, err := sess.Run(nil, []string{"loss_" + lossParity(cfg.Steps-1)}, nil)
	if err != nil {
		return 0, 0, err
	}
	record(cfg.Steps-1, out[0].ScalarFloat())
	return first, last, nil
}

// RunReal trains in-process: one session and driver goroutine per replica,
// gradients ring-allreduced between in-process hubs (NewLoopbackGroups).
func RunReal(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := session.NewResources()
	groups := collective.NewLoopbackGroups(cfg.Workers, collective.Options{Fusion: collective.FusionOptions{FlushTensors: cfg.flushTensors()}})
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
		if err := initVars(sess, workerInit(cfg, w)); err != nil {
			return nil, err
		}
	}
	return runReplicas(cfg, sessions, func() {
		for _, g := range groups {
			g.Close()
		}
	})
}

// runReplicas runs the per-replica training loops at once (cluster.Each),
// the first failure calling abort so peers blocked in a collective fail
// too instead of hanging, and then assembles the Result.
func runReplicas(cfg Config, sessions []*session.Session, abort func()) (*Result, error) {
	type out struct{ first, last float64 }
	start := time.Now()
	outs := make([]out, cfg.Workers)
	err := cluster.Each(cfg.Workers, func(w int) (err error) {
		outs[w].first, outs[w].last, err = driveWorker(cfg, sessions[w])
		return err
	}, abort)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	return result(cfg, sessions, outs[0].first, outs[0].last, elapsed)
}

// result reads every replica's final weights back and assembles the Result
// of a run whose replica 0 saw losses first and last: it includes the
// synchronous allreduce invariant that all replicas ended bit-for-bit
// equal.
func result(cfg Config, sessions []*session.Session, first, last float64, elapsed time.Duration) (*Result, error) {
	weights := make([]*tensor.Tensor, len(sessions))
	if err := cluster.Each(len(sessions), func(w int) (err error) {
		weights[w], err = readWeights(cfg, sessions[w])
		return err
	}, nil); err != nil {
		return nil, err
	}
	equal := true
	for _, w := range weights[1:] {
		equal = equal && w.Equal(weights[0])
	}
	return &Result{
		InitialLoss:   first,
		FinalLoss:     last,
		WeightErr:     relWeightErr(weights[0], TrueWeights(cfg)),
		Steps:         cfg.Steps,
		Seconds:       elapsed.Seconds(),
		StepSeconds:   elapsed.Seconds() / float64(cfg.Steps),
		GradBytes:     int64(cfg.Features) * 8,
		ReplicasEqual: equal,
		Weights:       weights[0],
	}, nil
}
