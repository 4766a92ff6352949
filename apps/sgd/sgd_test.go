package sgd

import (
	"testing"

	"tfhpc/internal/cluster"
	"tfhpc/internal/hw"
	"tfhpc/internal/simnet"
	"tfhpc/internal/telemetry"
)

func baseConfig() Config {
	return Config{
		Features:      32,
		RowsPerWorker: 128,
		Workers:       4,
		Steps:         80,
		LR:            0.4,
		Seed:          5,
		Noise:         0.01,
	}
}

func TestValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Features = 0 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.LR = 0 },
	} {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", c)
		}
	}
}

func TestTrainsAndReplicasStayIdentical(t *testing.T) {
	res, err := RunReal(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReplicasEqual {
		t.Fatal("replicas diverged — synchronous allreduce must keep them bit-identical")
	}
	if res.FinalLoss >= res.InitialLoss/10 {
		t.Fatalf("loss barely moved: %g -> %g", res.InitialLoss, res.FinalLoss)
	}
	if res.WeightErr > 0.15 {
		t.Fatalf("weight error %g, want near the noise floor", res.WeightErr)
	}
}

// TestWorkerCountsAgree: with the same total dataset, the full-batch
// gradient is a sum over all rows — the decomposition must not change the
// trajectory beyond roundoff.
func TestWorkerCountsAgree(t *testing.T) {
	// Same shards, regrouped: 4 workers of 64 rows vs 2 workers of 128 rows
	// would shuffle the generator streams, so instead compare 1 worker vs 4
	// on identical total data by verifying both converge to w*.
	cfg1 := baseConfig()
	cfg1.Workers = 1
	cfg1.Noise = 0
	cfg1.Steps = 250
	cfg4 := baseConfig()
	cfg4.Noise = 0
	cfg4.Steps = 250
	r1, err := RunReal(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunReal(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.WeightErr > 1e-3 || r4.WeightErr > 1e-3 {
		t.Fatalf("noise-free runs should recover w*: err1=%g err4=%g", r1.WeightErr, r4.WeightErr)
	}
}

// TestMultiTensorMatchesSingle: splitting the weights into parameter
// tensors splits only the gradient, not the math — same data, same updates,
// so the trajectory and final weights must agree with the one-tensor run to
// the last bit when every gradient allreduce picks the same algorithm (they
// do: these gradients sit below the doubling threshold).
func TestMultiTensorMatchesSingle(t *testing.T) {
	single := baseConfig()
	single.Steps = 25
	multi := single
	multi.ParamTensors = 5 // uneven 32/5 split exercises ragged chunks
	rs, err := RunReal(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RunReal(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.ReplicasEqual {
		t.Fatal("multi-tensor replicas diverged")
	}
	if !rm.Weights.Equal(rs.Weights) {
		t.Fatal("multi-tensor weights differ from single-tensor weights")
	}
	if diff := rm.FinalLoss - rs.FinalLoss; diff != 0 {
		t.Fatalf("multi-tensor loss %g != single-tensor loss %g", rm.FinalLoss, rs.FinalLoss)
	}
}

// TestFusedMatchesUnfusedBitwise is the in-process form of the CI smoke
// assertion: routing the per-tensor gradients through the fusion buffer
// must leave the final weights bit-identical to the unfused multi-tensor
// run — the fused pass reduces the packed payload through the same
// doubling tree.
func TestFusedMatchesUnfusedBitwise(t *testing.T) {
	unfused := baseConfig()
	unfused.Steps = 25
	unfused.ParamTensors = 4
	fused := unfused
	fused.Fuse = true
	ru, err := RunReal(unfused)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := RunReal(fused)
	if err != nil {
		t.Fatal(err)
	}
	if !rf.ReplicasEqual {
		t.Fatal("fused replicas diverged")
	}
	if !rf.Weights.Equal(ru.Weights) {
		t.Fatal("fused weights not bit-identical to unfused weights")
	}
	if rf.FinalLoss != ru.FinalLoss {
		t.Fatalf("fused loss %g != unfused loss %g", rf.FinalLoss, ru.FinalLoss)
	}
}

// TestSingleTensorHasNoConcat: with one parameter tensor the weight
// Variable feeds the forward MatVec directly. ConcatRows makes a fresh
// output, so at T = 1 it would only copy the whole weight vector every step.
func TestSingleTensorHasNoConcat(t *testing.T) {
	for _, tensors := range []int{0, 1, 3} {
		cfg := baseConfig()
		cfg.ParamTensors = tensors
		g := buildWorker(cfg, 0, "sgd", "")
		concats := 0
		for _, n := range g.Nodes() {
			if n.Op() == "ConcatRows" {
				concats++
			}
		}
		want, wantIn := 1, "w_full"
		if tensors <= 1 {
			want, wantIn = 0, weightNode(0)
		}
		if in := g.Lookup("pred").Inputs()[1].Name(); concats != want || in != wantIn {
			t.Errorf("ParamTensors %d: %d ConcatRows nodes, pred reads %q; want %d, %q", tensors, concats, in, want, wantIn)
		}
	}
}

func TestClusterTrainingMatchesInProcess(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 15
	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	dist, err := RunCluster(cfg, peers, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ReplicasEqual {
		t.Fatal("cluster replicas diverged")
	}
	// Same data, same updates, identical bytes over the transport: the
	// losses agree bit for bit.
	if dist.FinalLoss != local.FinalLoss {
		t.Fatalf("cluster loss %g != in-process loss %g", dist.FinalLoss, local.FinalLoss)
	}

	// Steady state: a step is one run message per task. Two runs that
	// differ only in step count price a step free of the init and read-back
	// they share. It must issue at most 4 rpc calls and move no variable:
	// each worker's X and Xᵀ are 256 KiB here, and per-op remote execution
	// shipped both out and back every step. These tasks serve in this
	// process, so their graphs reach them over partition streams only with
	// co-located edges off.
	t.Setenv("TFHPC_NO_SHM", "1")
	big := cfg
	big.Features, big.RowsPerWorker, big.LR = 2048, 16, 1e-4
	varBytes := int64(2 * big.Features * big.RowsPerWorker * 8 * big.Workers)
	// Fresh tasks: variables keep their shape for a task's lifetime.
	blc, err := cluster.StartLocal(map[string]int{"worker": big.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer blc.Close()
	bpeers := cluster.NewPeers(blc.Spec())
	defer bpeers.Close()
	calls := counter(t, "tfhpc_rpc_calls_total")
	moved := counter(t, "tfhpc_session_stream_bytes_total")
	measure := func(steps int) (int64, int64) {
		big.Steps = steps
		c0, b0 := calls.Value(), moved.Value()
		res, err := RunCluster(big, bpeers, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.ReplicasEqual {
			t.Fatal("cluster replicas diverged")
		}
		return calls.Value() - c0, moved.Value() - b0
	}
	c5, b5 := measure(5)
	c25, b25 := measure(25)
	t.Logf("per steady-state step: %.2f rpc calls, %.0f bytes over partition streams", float64(c25-c5)/20, float64(b25-b5)/20)
	if b5 < varBytes {
		t.Fatalf("a run moved %d bytes over its streams, less than its %d bytes of X and Xᵀ: the counter misses the init", b5, varBytes)
	}
	if perStep := float64(c25-c5) / 20; perStep > 4 {
		t.Fatalf("%.2f rpc calls per steady-state step, want ≤ 4", perStep)
	}
	if perStep := float64(b25-b5) / 20; perStep >= 64<<10 {
		t.Fatalf("%.0f bytes cross per steady-state step, want < 64 KiB", perStep)
	}
}

// counter fetches a registered telemetry counter by name.
func counter(t *testing.T, name string) *telemetry.Counter {
	t.Helper()
	for _, m := range telemetry.Metrics() {
		if m.Name == name {
			return telemetry.NewCounter(name, m.Help)
		}
	}
	t.Fatalf("no metric %q registered", name)
	return nil
}

// TestClusterFusedMultiTensor drives the fused multi-tensor graph over real
// task servers: AllReduceFused ops coalesce on each server's fusion buffer,
// the async loss handles span partition runs, and the result must match
// the in-process fused run bit-for-bit.
func TestClusterFusedMultiTensor(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 10
	cfg.ParamTensors = 3
	cfg.Fuse = true
	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	dist, err := RunCluster(cfg, peers, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ReplicasEqual {
		t.Fatal("fused cluster replicas diverged")
	}
	if !dist.Weights.Equal(local.Weights) {
		t.Fatal("fused cluster weights differ from in-process fused weights")
	}
}

func TestSimRingBeatsNaive(t *testing.T) {
	cfg := SimConfig{
		Cluster:  hw.Kebnekaise,
		NodeType: hw.Kebnekaise.NodeTypes["v100"],
		Protocol: simnet.RDMA,
		Config:   Config{Features: 1 << 20, RowsPerWorker: 4096, Workers: 8, Steps: 10, LR: 0.1, Seed: 1},
	}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RingSpeedup <= 1.5 {
		t.Fatalf("ring speedup %.2f over gather-to-root at p=8, want > 1.5", res.RingSpeedup)
	}
	// Scaling: doubling workers must not double ring time (it is ~constant),
	// while the naive path grows linearly.
	cfg16 := cfg
	cfg16.Workers = 16
	res16, err := RunSim(cfg16)
	if err != nil {
		t.Fatal(err)
	}
	if res16.RingSeconds > 1.6*res.RingSeconds {
		t.Fatalf("ring time grew %gx from 8 to 16 workers, want ~constant",
			res16.RingSeconds/res.RingSeconds)
	}
	if res16.NaiveSeconds < 1.7*res.NaiveSeconds {
		t.Fatalf("naive time grew only %gx from 8 to 16 workers, want ~2x",
			res16.NaiveSeconds/res.NaiveSeconds)
	}
}
