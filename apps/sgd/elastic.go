package sgd

import (
	"fmt"
	"time"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/cluster"
	"tfhpc/internal/collective"
	"tfhpc/internal/gemm"
	"tfhpc/internal/simnet"
	"tfhpc/internal/tensor"
)

// Elastic training: Horovod-elastic semantics on our own engine. The run
// survives rank loss instead of dying with it — the driver detects the
// casualty, rebuilds the collective group over the survivors under a fresh
// generation (higher epoch, so the transports fence out the dead
// incarnation's traffic), reshards the global dataset across the new
// membership, restores weights from the last barrier-bracketed checkpoint,
// and continues. When the lost task answers health probes again it is folded
// back in at the next checkpoint boundary and the group returns to full
// width.
//
// The full-batch gradient is a sum over the global dataset, so it is
// independent of how many workers the rows are sharded across (up to
// floating-point grouping) — a shrunken group walks the same loss trajectory
// as the full one, which is what makes "converges within tolerance of an
// uninterrupted run" a meaningful acceptance bar rather than a vague hope.

// ElasticOptions tune an elastic run.
type ElasticOptions struct {
	// CkptPath is the checkpoint file. Saves are atomic (temp + rename) and
	// CRC-trailered; resume reads this file, so a corrupt checkpoint fails
	// the run loudly with checkpoint.ErrCorrupt. Empty keeps checkpoints in
	// memory only.
	CkptPath string
	// CkptEvery takes a checkpoint every K steps (default 5). Boundaries are
	// barrier-bracketed: every rank finishes the step before rank 0's
	// weights are read, and grow-back also happens only at boundaries.
	CkptEvery int
	// MinWorkers fails the run when the live membership drops below it
	// (default 1).
	MinWorkers int
	// StepDelay sleeps before every step — CI uses it to widen the window a
	// kill -9 must land in.
	StepDelay time.Duration
	// Plan schedules deterministic faults (CrashRank/CrashAtStep: Kill that
	// task at the start of that step, once). The zero value schedules none.
	Plan simnet.FaultPlan
	// Kill is the only crash injection. The driver keeps a killed task out
	// of the shrink probe until a boundary probe finds it answering again,
	// so a test may close the task's server and restart it on its old
	// address at once. nil injects nothing: real deployments crash tasks
	// from outside (CI: kill -9).
	Kill func(task int)
	// Logf receives membership events (shrink, resume, grow). nil discards.
	Logf func(format string, args ...any)
}

func (o ElasticOptions) ckptEvery() int {
	if o.CkptEvery <= 0 {
		return 5
	}
	return o.CkptEvery
}

func (o ElasticOptions) minWorkers() int {
	if o.MinWorkers <= 0 {
		return 1
	}
	return o.MinWorkers
}

func (o ElasticOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ElasticResult extends Result with the membership history.
type ElasticResult struct {
	Result
	// Shrinks counts memberships rebuilt smaller after a casualty.
	Shrinks int
	// Grows counts memberships rebuilt wider after a task came back.
	Grows int
	// Rebuilds counts group constructions, the initial one included.
	Rebuilds int
	// Resumes counts checkpoint restores.
	Resumes int
	// FinalWorkers is the width of the last membership.
	FinalWorkers int
}

// elasticPre is the generation-qualified variable prefix of one slot. Shard
// sizes change with membership width, so a task must never reuse an earlier
// generation's variables — the generation in the name guarantees it.
func elasticPre(gen, slot int) string { return fmt.Sprintf("g%d/w%d/", gen, slot) }

// globalData materialises the full-width dataset: the concatenation of every
// worker's Shard, so elastic runs of any membership history (and the
// uninterrupted baseline) train on identical rows.
func globalData(cfg Config) (x, y *tensor.Tensor) {
	d := cfg.Features
	xv := make([]float64, cfg.TotalRows()*d)
	yv := make([]float64, cfg.TotalRows())
	for w := 0; w < cfg.Workers; w++ {
		sx, sy := Shard(cfg, w)
		copy(xv[w*cfg.RowsPerWorker*d:], sx.F64())
		copy(yv[w*cfg.RowsPerWorker:], sy.F64())
	}
	return tensor.FromF64(tensor.Shape{cfg.TotalRows(), d}, xv),
		tensor.FromF64(tensor.Shape{cfg.TotalRows()}, yv)
}

// varInit is one Variable node's initial value.
type varInit struct {
	Node string
	Val  *tensor.Tensor
}

// elasticInit lists slot's variables for a p-member generation: its segment
// of the global dataset (rows SegBounds(M, p, slot)), the packed transpose,
// and the carried weight vector.
func elasticInit(cfg Config, gx, gy *tensor.Tensor, p, slot int, w *tensor.Tensor) []varInit {
	d := cfg.Features
	lo, hi := collective.SegBounds(cfg.TotalRows(), p, slot)
	m := hi - lo
	x := tensor.FromF64(tensor.Shape{m, d}, gx.F64()[lo*d:hi*d])
	y := tensor.FromF64(tensor.Shape{m}, gy.F64()[lo:hi])
	xtv := make([]float64, d*m)
	gemm.Transpose64(m, d, x.F64(), xtv)

	out := []varInit{{"X", x}, {"y", y}}
	if !cfg.multiTensor() {
		out = append(out,
			varInit{"Xt", tensor.FromF64(tensor.Shape{d, m}, xtv)},
			varInit{"w", w.Clone()})
		return out
	}
	T := cfg.paramTensors()
	wv := w.F64()
	for t := 0; t < T; t++ {
		tlo, thi := chunkBounds(d, T, t)
		out = append(out,
			varInit{fmt.Sprintf("Xt%d", t), tensor.FromF64(tensor.Shape{thi - tlo, m}, xtv[tlo*m:thi*m])},
			varInit{fmt.Sprintf("w%d", t), tensor.FromF64(tensor.Shape{thi - tlo}, append([]float64(nil), wv[tlo:thi]...))})
	}
	return out
}

// elasticTargets are the per-step assign targets of either graph shape.
func elasticTargets(cfg Config) []string {
	if !cfg.multiTensor() {
		return []string{"save_w"}
	}
	ts := make([]string, cfg.paramTensors())
	for t := range ts {
		ts[t] = saveTarget(t)
	}
	return ts
}

func elasticGraphID(cfg Config) string {
	return fmt.Sprintf("sgd-elastic:d%d:T%d", cfg.Features, cfg.paramTensors())
}

// runElastic is the generation loop: be builds each membership (one session
// per slot, through which variables load and weights read back), probes
// liveness and injects crashes. active[i] is the task hosting rank/slot i.
func runElastic(cfg Config, be *clusterElastic, opts ElasticOptions) (*ElasticResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if (opts.Plan == simnet.FaultPlan{}) {
		opts.Plan = simnet.NewFaultPlan()
	}
	gx, gy := globalData(cfg)
	graphID := elasticGraphID(cfg)
	targets := elasticTargets(cfg)
	feeds := map[string]*tensor.Tensor{"lr": tensor.ScalarF64(cfg.LR)}

	// The running checkpoint: weights + completed steps, mirrored to disk
	// when a path is configured. Resume reads the file back so the on-disk
	// integrity trailer is on the real recovery path.
	ckptW := tensor.New(tensor.Float64, cfg.Features)
	ckptStep := 0
	saveCkpt := func() error {
		if opts.CkptPath == "" {
			return nil
		}
		ck := &checkpoint.Checkpoint{
			GraphID: graphID,
			Step:    int64(ckptStep),
			Vars:    map[string]*tensor.Tensor{"w": ckptW},
		}
		return ck.Save(opts.CkptPath)
	}
	restoreCkpt := func() error {
		if opts.CkptPath == "" {
			return nil // in-memory ckptW/ckptStep are already the snapshot
		}
		c, err := checkpoint.Load(opts.CkptPath)
		if err != nil {
			return err
		}
		if c.GraphID != graphID {
			return fmt.Errorf("sgd: checkpoint graph %q, want %q", c.GraphID, graphID)
		}
		w, ok := c.Vars["w"]
		if !ok {
			return fmt.Errorf("sgd: checkpoint has no weight tensor")
		}
		ckptW, ckptStep = w, int(c.Step)
		return nil
	}
	if err := saveCkpt(); err != nil {
		return nil, err
	}

	active := make([]int, cfg.Workers)
	for i := range active {
		active[i] = i
	}
	res := &ElasticResult{}
	var firstLoss float64
	firstSeen := false
	var lastLoss float64
	killed := make(map[int]bool)
	start := time.Now()

	// shrink handles one membership failure: unblock the group, find the
	// survivors, restore the checkpoint. Returns the fatal error, if any.
	shrink := func(gen int, cause error) error {
		be.abort(gen)
		alive := make([]int, 0, len(active))
		for _, t := range active {
			if be.probe(t) == nil {
				alive = append(alive, t)
			}
		}
		if len(alive) < opts.minWorkers() {
			return fmt.Errorf("sgd: %d live workers (< %d) after failure: %w", len(alive), opts.minWorkers(), cause)
		}
		if len(alive) == len(active) {
			// Everyone answers but the step failed — a torn group (e.g. the
			// casualty restarted fast enough to pass the probe). Rebuild at
			// the same width; the retry guard bounds how often.
			opts.logf("sgd: elastic: step failed with all %d tasks live (%v), rebuilding", len(active), cause)
		} else {
			res.Shrinks++
			opts.logf("sgd: elastic: shrink %d -> %d tasks (%v)", len(active), len(alive), cause)
		}
		if err := restoreCkpt(); err != nil {
			return fmt.Errorf("sgd: resume after failure: %w", err)
		}
		res.Resumes++
		opts.logf("sgd: elastic: resumed from checkpoint step %d", ckptStep)
		active = alive
		return nil
	}

	maxRebuilds := 8 + 4*cfg.Workers
	gen := 0
	for ckptStep < cfg.Steps {
		gen++
		if gen > maxRebuilds {
			return nil, fmt.Errorf("sgd: elastic run did not stabilise after %d rebuilds", maxRebuilds)
		}
		res.Rebuilds++
		p := len(active)
		sessions, err := be.setup(active, gen)
		if err == nil {
			err = cluster.Each(p, func(slot int) error {
				return initVars(sessions[slot], elasticInit(cfg, gx, gy, p, slot, ckptW))
			}, nil)
		}
		if err != nil {
			if ferr := shrink(gen, err); ferr != nil {
				return nil, ferr
			}
			continue
		}
		opts.logf("sgd: elastic: generation %d over tasks %v from step %d", gen, active, ckptStep)

		// The first slot to fail poisons the whole group right away, so
		// peers blocked mid-collective cascade instead of waiting out the
		// receive timeout.
		failFast := func() { be.abort(gen) }

		rebuilt := false
		for step := ckptStep; step < cfg.Steps; step++ {
			if ct := opts.Plan.CrashTaskAt(step); ct != simnet.NoRank && !killed[ct] {
				killed[ct] = true
				be.kill(ct)
			}
			if opts.StepDelay > 0 {
				time.Sleep(opts.StepDelay)
			}
			losses := make([]float64, p)
			err := cluster.Each(p, func(slot int) error {
				out, rerr := sessions[slot].Run(feeds, []string{"loss"}, targets)
				if rerr != nil {
					return rerr
				}
				losses[slot] = out[0].ScalarFloat()
				return nil
			}, failFast)
			if err != nil {
				if ferr := shrink(gen, err); ferr != nil {
					return nil, ferr
				}
				rebuilt = true
				break
			}
			if step == 0 && !firstSeen {
				firstSeen = true
				firstLoss = losses[0]
			}
			lastLoss = losses[0]

			done := step + 1
			if done%opts.ckptEvery() != 0 && done != cfg.Steps {
				continue
			}
			// Checkpoint boundary: barrier so every rank has applied the
			// step's update, then snapshot rank 0's weights.
			err = cluster.Each(p, func(slot int) error {
				_, berr := sessions[slot].Run(nil, nil, []string{"ckpt_barrier"})
				return berr
			}, failFast)
			var w *tensor.Tensor
			if err == nil {
				w, err = readWeights(cfg, sessions[0])
			}
			if err != nil {
				if ferr := shrink(gen, err); ferr != nil {
					return nil, ferr
				}
				rebuilt = true
				break
			}
			ckptW, ckptStep = w, done
			if err := saveCkpt(); err != nil {
				return nil, err
			}

			// Grow-back: fold returned tasks in at the boundary.
			if len(active) < cfg.Workers && done < cfg.Steps {
				var back []int
				for t := 0; t < cfg.Workers; t++ {
					if !contains(active, t) && be.announced(t) {
						back = append(back, t)
					}
				}
				if len(back) > 0 {
					res.Grows++
					active = mergeSorted(active, back)
					opts.logf("sgd: elastic: grow back to %d tasks (%v rejoined) at step %d", len(active), back, done)
					rebuilt = true
					break
				}
			}
		}
		if !rebuilt && ckptStep < cfg.Steps {
			// The step loop ended without a rebuild request but short of the
			// step target — can only mean cfg.Steps isn't a boundary, which
			// the boundary condition above rules out.
			return nil, fmt.Errorf("sgd: elastic loop stalled at step %d", ckptStep)
		}
		if ckptStep == cfg.Steps {
			// Training finished: verify the replica invariant on the final
			// membership before tearing it down.
			weights := make([]*tensor.Tensor, p)
			err := cluster.Each(p, func(slot int) (rerr error) {
				weights[slot], rerr = readWeights(cfg, sessions[slot])
				return rerr
			}, nil)
			if err != nil {
				return nil, err
			}
			equal := true
			for s := 1; s < p; s++ {
				if !weights[s].Equal(weights[0]) {
					equal = false
				}
			}
			elapsed := time.Since(start).Seconds()
			res.Result = Result{
				InitialLoss:   firstLoss,
				FinalLoss:     lastLoss,
				WeightErr:     relWeightErr(weights[0], TrueWeights(cfg)),
				Steps:         cfg.Steps,
				Seconds:       elapsed,
				StepSeconds:   elapsed / float64(cfg.Steps),
				GradBytes:     int64(cfg.Features) * 8,
				ReplicasEqual: equal,
				Weights:       weights[0],
			}
			res.FinalWorkers = p
			return res, nil
		}
	}
	return nil, fmt.Errorf("sgd: elastic loop exited without a result")
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// mergeSorted merges two ascending task lists (rank order must be stable so
// every task derives the same slot assignment).
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
