package sgd

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/cluster"
	"tfhpc/internal/simnet"
)

func elasticConfig(p int) Config {
	return Config{
		Features:      16,
		RowsPerWorker: 24,
		Workers:       p,
		Steps:         18,
		LR:            0.3,
		Seed:          11,
		Noise:         0.01,
	}
}

// crashPlan kills `task` at the start of `step`.
func crashPlan(task, step int) simnet.FaultPlan {
	plan := simnet.NewFaultPlan()
	plan.CrashRank = task
	plan.CrashAtStep = step
	return plan
}

// elasticLocal runs RunElasticCluster over cfg.Workers task servers started
// in this process. opts.Kill closes the victim's server; with revive it
// restarts the task on its old address at once, and the driver folds it back
// in at the next checkpoint boundary whose probe finds it answering.
func elasticLocal(t *testing.T, cfg Config, opts ElasticOptions, revive bool) (*ElasticResult, error) {
	t.Helper()
	_, res, err := elasticTasks(t, cfg, opts, revive)
	return res, err
}

// elasticTasks is elasticLocal that also returns the tasks, restarted ones
// in their victims' places.
func elasticTasks(t *testing.T, cfg Config, opts ElasticOptions, revive bool) (*cluster.Local, *ElasticResult, error) {
	t.Helper()
	const job = "worker"
	lc, err := cluster.StartLocal(map[string]int{job: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	peers := cluster.NewPeers(lc.Spec())
	t.Cleanup(peers.Close)
	opts.Kill = func(task int) {
		lc.Server(job, task).Close()
		if !revive {
			return
		}
		srv := cluster.NewServer(job, task)
		if _, err := srv.Start(lc.Spec()[job][task]); err != nil {
			t.Errorf("restart task %d: %v", task, err)
			return
		}
		lc.Servers[job][task] = srv
	}
	res, err := RunElasticCluster(cfg, peers, ClusterOptions{}, opts)
	return lc, res, err
}

// baselineLoss is the final loss of the uninterrupted non-elastic driver.
func baselineLoss(t *testing.T, cfg Config) float64 {
	t.Helper()
	res, err := RunReal(cfg)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return res.FinalLoss
}

// lossWithin asserts the elastic run's final loss is within rel of the
// uninterrupted baseline — the convergence-equivalence bar from the paper's
// checkpoint-restart pitch.
func lossWithin(t *testing.T, got, baseline, rel float64) {
	t.Helper()
	if baseline == 0 {
		t.Fatal("degenerate baseline loss 0")
	}
	if d := math.Abs(got-baseline) / math.Abs(baseline); d > rel {
		t.Fatalf("final loss %g vs baseline %g: relative diff %g > %g", got, baseline, d, rel)
	}
}

func TestElasticUninterrupted(t *testing.T) {
	cfg := elasticConfig(4)
	res, err := elasticLocal(t, cfg, ElasticOptions{CkptEvery: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 1 || res.Shrinks != 0 || res.Grows != 0 || res.Resumes != 0 {
		t.Fatalf("fault-free run had membership churn: %+v", res)
	}
	if res.FinalWorkers != 4 {
		t.Fatalf("final width %d, want 4", res.FinalWorkers)
	}
	if !res.ReplicasEqual {
		t.Fatal("replicas diverged")
	}
	if res.FinalLoss >= res.InitialLoss/10 {
		t.Fatalf("loss barely moved: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
	lossWithin(t, res.FinalLoss, baselineLoss(t, cfg), 1e-3)
}

// TestElasticShrinkResume: kill one rank mid-run at 2..5 ranks; the run must
// shrink, resume from its checkpoint, finish on the survivors, and land
// within tolerance of the uninterrupted run.
func TestElasticShrinkResume(t *testing.T) {
	for p := 2; p <= 5; p++ {
		cfg := elasticConfig(p)
		res, err := elasticLocal(t, cfg, ElasticOptions{
			CkptEvery: 4,
			Plan:      crashPlan(p-1, 7),
		}, false)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Shrinks != 1 || res.Grows != 0 {
			t.Fatalf("p=%d: shrinks=%d grows=%d, want 1/0", p, res.Shrinks, res.Grows)
		}
		if res.FinalWorkers != p-1 {
			t.Fatalf("p=%d: finished at width %d, want %d", p, res.FinalWorkers, p-1)
		}
		if res.Resumes < 1 {
			t.Fatalf("p=%d: no checkpoint resume recorded", p)
		}
		if !res.ReplicasEqual {
			t.Fatalf("p=%d: survivors diverged", p)
		}
		lossWithin(t, res.FinalLoss, baselineLoss(t, cfg), 1e-3)
	}
}

// TestElasticShrinkThenGrow: the killed task answers probes again at once,
// so the run must shrink, return to full width at the next boundary, and
// still converge.
func TestElasticShrinkThenGrow(t *testing.T) {
	cfg := elasticConfig(4)
	res, err := elasticLocal(t, cfg, ElasticOptions{
		CkptEvery: 3,
		Plan:      crashPlan(2, 5),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shrinks < 1 {
		t.Fatalf("no shrink recorded: %+v", res)
	}
	if res.Grows < 1 {
		t.Fatalf("task never grew back: %+v", res)
	}
	if res.FinalWorkers != 4 {
		t.Fatalf("final width %d, want full 4", res.FinalWorkers)
	}
	if !res.ReplicasEqual {
		t.Fatal("replicas diverged after grow-back")
	}
	lossWithin(t, res.FinalLoss, baselineLoss(t, cfg), 1e-3)
}

// TestElasticReleasesSessions: every generation's sessions close with it.
// Over partitions (TFHPC_NO_SHM=1) each session holds one on its task, so
// once a shrink-then-grow run returns no live task may hold any. A task
// drops a stream's partitions once it sees the stream close, so the check
// allows it a moment.
func TestElasticReleasesSessions(t *testing.T) {
	t.Setenv("TFHPC_NO_SHM", "1")
	cfg := elasticConfig(3)
	lc, res, err := elasticTasks(t, cfg, ElasticOptions{
		CkptEvery: 3,
		Plan:      crashPlan(1, 4),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shrinks < 1 || res.Grows < 1 {
		t.Fatalf("want a shrink and a grow: %+v", res)
	}
	for task, srv := range lc.Servers["worker"] {
		deadline := time.Now().Add(2 * time.Second)
		for srv.Partitions() != 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := srv.Partitions(); n != 0 {
			t.Fatalf("task %d holds %d partitions 2 s after the run", task, n)
		}
	}
}

// TestElasticShrinkDuringFusion: the crash lands while the per-step gradient
// allreduces ride the fusion buffer — the rebuild must renegotiate the
// fusion membership for the new width.
func TestElasticShrinkDuringFusion(t *testing.T) {
	cfg := elasticConfig(3)
	cfg.ParamTensors = 4
	cfg.Fuse = true
	res, err := elasticLocal(t, cfg, ElasticOptions{
		CkptEvery: 4,
		Plan:      crashPlan(1, 6),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shrinks != 1 || res.FinalWorkers != 2 {
		t.Fatalf("shrinks=%d width=%d, want 1/2", res.Shrinks, res.FinalWorkers)
	}
	if !res.ReplicasEqual {
		t.Fatal("replicas diverged")
	}
	lossWithin(t, res.FinalLoss, baselineLoss(t, cfg), 1e-3)
}

// TestElasticMinWorkers: losing a rank with the floor at full width is not
// survivable and must fail, not hang.
func TestElasticMinWorkers(t *testing.T) {
	cfg := elasticConfig(2)
	_, err := elasticLocal(t, cfg, ElasticOptions{
		CkptEvery:  4,
		MinWorkers: 2,
		Plan:       crashPlan(1, 3),
	}, false)
	if err == nil {
		t.Fatal("run below MinWorkers should fail")
	}
}

// TestElasticCheckpointFile: the on-disk checkpoint is the real resume
// source and must end at the final step with the final weights.
func TestElasticCheckpointFile(t *testing.T) {
	cfg := elasticConfig(3)
	path := filepath.Join(t.TempDir(), "elastic.ckpt")
	res, err := elasticLocal(t, cfg, ElasticOptions{
		CkptPath:  path,
		CkptEvery: 4,
		Plan:      crashPlan(1, 5),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumes < 1 {
		t.Fatal("no resume recorded — the crash path never exercised the file")
	}
	ck, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.GraphID != elasticGraphID(cfg) {
		t.Fatalf("graph id %q", ck.GraphID)
	}
	if int(ck.Step) != cfg.Steps {
		t.Fatalf("checkpoint step %d, want %d", ck.Step, cfg.Steps)
	}
	if !ck.Vars["w"].Equal(res.Weights) {
		t.Fatal("checkpointed weights differ from the run's final weights")
	}
}

// TestElasticClusterShrinkGrow is the elastic smoke leg's shape (./smoke,
// real processes) in one process: kill a server mid-run, restart it on its
// old address only later, with the steps paced so it is back before the run
// ends, and require shrink → resume → grow with convergence within
// tolerance.
func TestElasticClusterShrinkGrow(t *testing.T) {
	cfg := elasticConfig(4)
	cfg.Steps = 21
	const job = "worker"
	lc, err := cluster.StartLocal(map[string]int{job: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	const victim = 2
	addr := lc.Spec()[job][victim]
	var restarted *cluster.Server
	defer func() {
		if restarted != nil {
			restarted.Close()
		}
	}()
	res, err := RunElasticCluster(cfg, peers, ClusterOptions{}, ElasticOptions{
		CkptPath:  filepath.Join(t.TempDir(), "cluster.ckpt"),
		CkptEvery: 3,
		// Pace the steps so the restarted server is back before the run
		// ends: the grow probe must find it at a later boundary.
		StepDelay: 25 * time.Millisecond,
		Plan:      crashPlan(victim, 7),
		Kill: func(task int) {
			lc.Server(job, task).Close()
			go func() {
				time.Sleep(150 * time.Millisecond)
				srv := cluster.NewServer(job, task)
				if _, err := srv.Start(addr); err == nil {
					restarted = srv
				}
			}()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shrinks < 1 {
		t.Fatalf("no shrink: %+v", res)
	}
	if res.Grows < 1 {
		t.Fatalf("restarted task never rejoined: %+v", res)
	}
	if res.FinalWorkers != cfg.Workers {
		t.Fatalf("final width %d, want %d", res.FinalWorkers, cfg.Workers)
	}
	if !res.ReplicasEqual {
		t.Fatal("replicas diverged")
	}
	lossWithin(t, res.FinalLoss, baselineLoss(t, cfg), 1e-3)
}

// TestElasticClusterPureShrink: a killed task never returns, so the run must
// shrink once, finish on the survivors, and land within tolerance of the
// uninterrupted elastic run at the same width.
func TestElasticClusterPureShrink(t *testing.T) {
	for p := 2; p <= 3; p++ {
		cfg := elasticConfig(p)
		baseline, err := elasticLocal(t, cfg, ElasticOptions{CkptEvery: 4}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := elasticLocal(t, cfg, ElasticOptions{
			CkptEvery: 4,
			Plan:      crashPlan(p-1, 6),
		}, false)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Shrinks != 1 || res.FinalWorkers != p-1 {
			t.Fatalf("p=%d: shrinks=%d width=%d, want 1/%d", p, res.Shrinks, res.FinalWorkers, p-1)
		}
		if !res.ReplicasEqual {
			t.Fatalf("p=%d: survivors diverged", p)
		}
		lossWithin(t, res.FinalLoss, baseline.FinalLoss, 1e-3)
	}
}
