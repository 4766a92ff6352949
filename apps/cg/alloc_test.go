package cg

import (
	"testing"

	"tfhpc/internal/cluster"
	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
)

// TestIterationAllocs pins the allocations of one warm single-worker
// iteration on a task in this process (the RunReal path): the three Runs
// of driveWorker with their op outputs and collectives. The Assigns of q, x, r and p adopt their values and add
// none (the iteration made 126 when they copied).
func TestIterationAllocs(t *testing.T) {
	const want = 110
	// The co-located route; a partition behind an rpc stream adds the
	// stream's frames.
	t.Setenv("TFHPC_NO_SHM", "")
	cfg := Config{N: 64, Workers: 1, MaxIters: 1}
	lc, err := cluster.StartLocal(map[string]int{"worker": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()
	job, err := peers.OpenJob("", group, 1, cluster.CollectiveOptions{},
		func(w int, device string) *graph.Graph { return buildWorker(cfg, w, device) })
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	sess, res := job.Sessions()[0], lc.Server("worker", 0).Res
	b := tensor.RandomUniform(tensor.Float64, 3, cfg.N)
	for name, v := range map[string]*tensor.Tensor{
		"A": SPDMatrix(cfg.N, 5), "x": tensor.New(tensor.Float64, cfg.N), "r": b, "p": b,
	} {
		if err := res.Vars.Get("w0/" + name).Assign(v); err != nil {
			t.Fatal(err)
		}
	}
	// Every call runs exactly one iteration from the same ‖r‖², whatever
	// the values it leaves behind.
	rr := b.F64()[0]*b.F64()[0] + 1
	got := testing.AllocsPerRun(100, func() {
		if out := driveWorker(cfg, sess, 0, 1, rr); out.err != nil || out.iter != 1 {
			t.Fatalf("iteration: %+v", out)
		}
	})
	if got > want {
		t.Fatalf("a cg iteration makes %v allocations, want at most %d", got, want)
	}
}
