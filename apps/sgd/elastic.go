package sgd

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/cluster"
	"tfhpc/internal/collective"
	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
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

// elasticInit lists slot's variables for a p-member generation: its segment
// of the global dataset (rows SegBounds(M, p, slot)) and the carried weight
// vector.
func elasticInit(cfg Config, gx, gy *tensor.Tensor, p, slot int, w *tensor.Tensor) []varInit {
	d := cfg.Features
	lo, hi := collective.SegBounds(cfg.TotalRows(), p, slot)
	x := tensor.FromF64(tensor.Shape{hi - lo, d}, gx.F64()[lo*d:hi*d])
	y := tensor.FromF64(tensor.Shape{hi - lo}, gy.F64()[lo:hi])
	return replicaVars(cfg, x, y, w.F64())
}

func elasticGraphID(cfg Config) string {
	return fmt.Sprintf("sgd-elastic:d%d:T%d", cfg.Features, cfg.paramTensors())
}

// The elastic group: one collective group name across all generations,
// each generation opened under a higher epoch (cluster.Peers.OpenJobTasks),
// so the transports' epoch fences keep a zombie incarnation's traffic out
// of the group that replaced it.
const elasticGroup = "sgd"

// Liveness probes after a failure retry a task mid-restart briefly; the
// grow-back probe at a boundary is one Health call, where a refused
// connection is the expected answer.
var elasticProbe = rpc.RetryPolicy{Attempts: 4, Base: 25 * time.Millisecond, Max: 250 * time.Millisecond}

const elasticProbeTimeout = 3 * time.Second

// RunElasticCluster trains elastically over an already-running cluster
// (separate processes, or cluster.StartLocal tasks in this one). The task
// count of the job is the full width; the run starts over every task and
// survives losing all but MinWorkers of them. Liveness is real (Health
// RPCs), so a kill -9'd task that restarts on its old address is folded
// back in at the next checkpoint boundary.
func RunElasticCluster(cfg Config, peers *cluster.Peers, copts ClusterOptions, opts ElasticOptions) (*ElasticResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	job := cmp.Or(copts.Job, "worker")
	if err := peers.CheckJob(job, cfg.Workers); err != nil {
		return nil, err
	}
	if (opts.Plan == simnet.FaultPlan{}) {
		opts.Plan = simnet.NewFaultPlan()
	}
	gx, gy := globalData(cfg)
	graphID := elasticGraphID(cfg)
	targets := saveTargets(cfg)
	feeds := map[string]*tensor.Tensor{"lr": tensor.ScalarF64(cfg.LR)}
	collOpts := cluster.CollectiveOptions{FlushTensors: cfg.flushTensors()}

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

	// active[i] is the task hosting rank/slot i, in ascending task order.
	active := make([]int, cfg.Workers)
	for i := range active {
		active[i] = i
	}
	res := &ElasticResult{}
	var firstLoss, lastLoss float64
	firstSeen := false
	// crashed holds the tasks opts.Plan has crashed (once each); down the
	// ones among them that no boundary probe has found answering since. A
	// down task fails the probes after a failure at once, so their retries
	// cannot race a test's instant restart into a no-op shrink.
	crashed, down := map[int]bool{}, map[int]bool{}
	start := time.Now()

	// shrink handles one membership failure: unblock the group, find the
	// survivors, restore the checkpoint. It returns the fatal error, if any.
	shrink := func(cause error) error {
		peers.AbortCollective(job, elasticGroup)
		alive := make([]int, 0, len(active))
		for _, t := range active {
			ctx, cancel := context.WithTimeout(context.Background(), elasticProbeTimeout)
			if !down[t] && peers.HealthRetry(ctx, job, t, elasticProbe) == nil {
				alive = append(alive, t)
			}
			cancel()
		}
		if len(alive) < opts.minWorkers() {
			return fmt.Errorf("sgd: %d live workers (< %d) after failure: %w", len(alive), opts.minWorkers(), cause)
		}
		if len(alive) == len(active) {
			// Everyone answers but the step failed — a torn group (e.g. the
			// casualty restarted fast enough to pass the probe). Rebuild at
			// the same width; the rebuild bound limits how often.
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

	// generation runs one membership from the checkpoint until training
	// ends, a task fails (shrink) or a task rejoins. It returns only fatal
	// errors; the membership's sessions close when it returns.
	generation := func(gen int) error {
		j, err := peers.OpenJobTasks(job, elasticGroup, active, collOpts, func(slot int, device string) *graph.Graph {
			return buildWorkerPre(cfg, elasticPre(gen, slot), elasticGroup, device)
		})
		if err != nil {
			return shrink(err)
		}
		defer j.Close()
		p := len(active)
		if err := j.Each(func(slot int, sess *session.Session) error {
			return initVars(sess, elasticInit(cfg, gx, gy, p, slot, ckptW))
		}); err != nil {
			return shrink(err)
		}
		opts.logf("sgd: elastic: generation %d over tasks %v from step %d", gen, active, ckptStep)

		for step := ckptStep; ; step++ {
			if ct := opts.Plan.CrashTaskAt(step); ct != simnet.NoRank && opts.Kill != nil && !crashed[ct] {
				crashed[ct], down[ct] = true, true
				opts.Kill(ct)
			}
			if opts.StepDelay > 0 {
				time.Sleep(opts.StepDelay)
			}
			losses := make([]float64, p)
			if err := j.Each(func(slot int, sess *session.Session) error {
				out, err := sess.Run(feeds, []string{"loss"}, targets)
				if err != nil {
					return err
				}
				losses[slot] = out[0].ScalarFloat()
				return nil
			}); err != nil {
				return shrink(err)
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
			if err := j.Each(func(_ int, sess *session.Session) error {
				_, err := sess.Run(nil, nil, []string{"ckpt_barrier"})
				return err
			}); err != nil {
				return shrink(err)
			}
			if done == cfg.Steps {
				// Training finished: check the replica invariant on the
				// final membership.
				r, err := result(cfg, j.Sessions(), firstLoss, lastLoss, time.Since(start))
				if err != nil {
					return shrink(err)
				}
				res.Result, res.FinalWorkers = *r, p
				ckptW, ckptStep = r.Weights, done
				return saveCkpt()
			}
			w, err := readWeights(cfg, j.Sessions()[0])
			if err != nil {
				return shrink(err)
			}
			ckptW, ckptStep = w, done
			if err := saveCkpt(); err != nil {
				return err
			}

			// Grow-back: fold returned tasks in at the boundary.
			var back []int
			for t := range cfg.Workers {
				if !slices.Contains(active, t) && peers.Health(job, t) == nil {
					back = append(back, t)
					delete(down, t)
				}
			}
			if len(back) > 0 {
				res.Grows++
				// Every task derives its rank from its place in active, so
				// active stays in task order.
				active = slices.Sorted(slices.Values(append(active, back...)))
				opts.logf("sgd: elastic: grow back to %d tasks (%v rejoined) at step %d", len(active), back, done)
				return nil
			}
		}
	}

	maxRebuilds := 8 + 4*cfg.Workers
	for gen := 1; ckptStep < cfg.Steps; gen++ {
		if gen > maxRebuilds {
			return nil, fmt.Errorf("sgd: elastic run did not stabilise after %d rebuilds", maxRebuilds)
		}
		res.Rebuilds++
		if err := generation(gen); err != nil {
			return nil, err
		}
	}
	return res, nil
}
