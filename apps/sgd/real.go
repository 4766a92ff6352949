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

// varInit is one Variable node's initial value.
type varInit struct {
	Node string
	Val  *tensor.Tensor
}

// workerInit lists worker w's variables: its Shard and zero weights.
func workerInit(cfg Config, w int) []varInit {
	x, y := Shard(cfg, w)
	return replicaVars(cfg, x, y, make([]float64, cfg.Features))
}

// replicaVars lays out one replica's variables for its rows x, labels y and
// weights w: Xᵀ is packed once, so the gradient matvec streams rows, and Xᵀ
// and w split into the T parameter tensors (rows of Xᵀ align with weight
// indices, so chunk t of Xᵀ feeds gradient tensor t). The chunks alias x's
// transpose and w; the init Run's Assigns copy them.
func replicaVars(cfg Config, x, y *tensor.Tensor, w []float64) []varInit {
	m, d := x.Shape()[0], cfg.Features
	xt := make([]float64, d*m)
	gemm.Transpose64(m, d, x.F64(), xt)
	T := cfg.paramTensors()
	out := []varInit{{"X", x}, {"y", y}}
	for t := range T {
		lo, hi := collective.SegBounds(d, T, t)
		out = append(out,
			varInit{xtNode(t), tensor.FromF64(tensor.Shape{hi - lo, m}, xt[lo*m:hi*m])},
			varInit{weightNode(t), tensor.FromF64(tensor.Shape{hi - lo}, w[lo:hi])})
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
	names := make([]string, cfg.paramTensors())
	for t := range names {
		names[t] = weightNode(t)
	}
	chunks, err := sess.Run(nil, names, nil)
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

// driveWorker runs one replica's training loop, pipelining the loss: step
// k's Run applies the weight update and only *starts* step k's loss
// allreduce (an async handle, parity-alternating), and fetches step k−1's
// loss — so each loss collective is on the wire while its step's assigns
// and the next step's forward pass execute. A drain Run after the last step
// fetches its loss.
func driveWorker(cfg Config, sess *session.Session) (first, last float64, err error) {
	lr := map[string]*tensor.Tensor{"lr": tensor.ScalarF64(cfg.LR)}
	saves := saveTargets(cfg)
	for step := 0; step <= cfg.Steps; step++ {
		var feeds map[string]*tensor.Tensor
		var fetches, targets []string
		if step > 0 {
			fetches = []string{"loss_" + lossParity(step-1)}
		}
		if step < cfg.Steps {
			feeds, targets = lr, append(saves[:len(saves):len(saves)], "loss_start_"+lossParity(step))
		}
		out, err := sess.Run(feeds, fetches, targets)
		if err != nil {
			return 0, 0, err
		}
		if step > 0 {
			last = out[0].ScalarFloat()
		}
		if step == 1 {
			first = last
		}
	}
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
