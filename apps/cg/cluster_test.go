package cg

import (
	"testing"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/tensor"
)

// TestClusterSolveMatchesInProcess solves the same system over an in-process
// TCP cluster (4 task servers, ring collectives between them) and in plain
// real mode; both must converge to the same solution.
func TestClusterSolveMatchesInProcess(t *testing.T) {
	cfg := Config{N: 64, Workers: 4, MaxIters: 150, Tol: 1e-9}
	a := SPDMatrix(cfg.N, 21)
	b := tensor.RandomUniform(tensor.Float64, 22, cfg.N)

	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()

	dist, err := RunCluster(cfg, a, b, peers, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunReal(cfg, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(t, a, dist.X, b); rn > 1e-7 {
		t.Fatalf("cluster solve residual ‖b - Ax‖ = %g after %d iters", rn, dist.Iters)
	}
	if dist.Iters != local.Iters || f64Hash(dist.X.F64()) != f64Hash(local.X.F64()) {
		t.Fatalf("cluster solve (%d iterations) and in-process solve (%d) differ in X's bits", dist.Iters, local.Iters)
	}
}

// RunCluster over tasks in this process runs each worker's graph in the
// driver's session, so no task ever holds a registered partition; under
// TFHPC_NO_SHM=1 the same solve registers its partitions on every task.
func TestColocatedTasksRunInTheDriversSession(t *testing.T) {
	cfg, a, b := goldenProblem()
	for _, noShm := range []string{"", "1"} {
		t.Setenv("TFHPC_NO_SHM", noShm)
		lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
		if err != nil {
			t.Fatal(err)
		}
		peers := cluster.NewPeers(lc.Spec())
		// Every task's partitions live from a session's first Run to its
		// Close, so polling through the solve sees them.
		held := make([]int, cfg.Workers)
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			for {
				for w := range held {
					held[w] = max(held[w], lc.Server("worker", w).Partitions())
				}
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}()
		_, err = RunCluster(cfg, a, b, peers, ClusterOptions{})
		close(stop)
		<-polled
		peers.Close()
		lc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for w, n := range held {
			if noShm != "" && n == 0 {
				t.Errorf("TFHPC_NO_SHM=1: task %d held no partition during the solve", w)
			}
			if noShm == "" && n != 0 {
				t.Errorf("co-located task %d held %d partitions during the solve, want 0", w, n)
			}
		}
	}
}
