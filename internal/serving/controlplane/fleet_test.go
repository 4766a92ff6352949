package controlplane

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/serving"
)

func testFleet(t *testing.T, n int) (*Fleet, *serving.Router) {
	t.Helper()
	router, err := serving.NewRouter(nil, serving.RouterOptions{BenchUntilHealthy: true})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(router, &ClusterSpawner{Batch: serving.BatchOptions{}},
		FleetOptions{Warmup: WarmupConfig{Rounds: 1, MaxBatch: 4}, DrainTimeout: 2 * time.Second})
	if err := fleet.SetModel("m", 1, LinearSource(testWeights(16, 1))); err != nil {
		t.Fatal(err)
	}
	if err := fleet.ScaleTo(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close(); router.Close() })
	return fleet, router
}

// Scaling up and down under live traffic must never drop a request: growth
// attaches warmed replicas, shrink drains through the router.
func TestFleetScaleUnderTraffic(t *testing.T) {
	fleet, router := testFleet(t, 1)

	var stop atomic.Bool
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	row := testBatch(1, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sent.Add(1)
				if _, err := router.Predict("m", row, time.Now().Add(2*time.Second)); err != nil {
					failed.Add(1)
					t.Errorf("predict under scaling failed: %v", err)
					return
				}
			}
		}()
	}

	for _, n := range []int{3, 1, 2} {
		if err := fleet.ScaleTo(n); err != nil {
			t.Fatalf("scale to %d: %v", n, err)
		}
		if got := router.NumReplicas(); got != n {
			t.Fatalf("router has %d replicas after ScaleTo(%d)", got, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d/%d requests failed during scaling", failed.Load(), sent.Load())
	}
	if sent.Load() == 0 {
		t.Fatal("no traffic flowed")
	}
	spawned, retired, _ := fleet.Counters()
	if spawned < 4 || retired < 2 {
		t.Fatalf("unexpected lifecycle counters: spawned=%d retired=%d", spawned, retired)
	}
}

// A member that dies is detected by the liveness probe and replaced, keeping
// the fleet at its size — the shrink-rebalance contract.
func TestFleetReapDeadReplaces(t *testing.T) {
	fleet, router := testFleet(t, 2)

	// Kill one backend's server out from under the fleet (the service stays,
	// the endpoint is gone — exactly what a crashed task looks like).
	fleet.mu.Lock()
	victim := fleet.backends[1].(*clusterBackend)
	fleet.mu.Unlock()
	victim.srv.Close()

	replaced, err := fleet.ReapDead()
	if err != nil {
		t.Fatalf("reap: %v", err)
	}
	if replaced != 1 {
		t.Fatalf("reaped %d members, want 1", replaced)
	}
	if fleet.Size() != 2 || router.NumReplicas() != 2 {
		t.Fatalf("fleet did not respawn to size 2: fleet=%d router=%d", fleet.Size(), router.NumReplicas())
	}
	if _, _, rep := fleet.Counters(); rep != 1 {
		t.Fatalf("replaced counter = %d, want 1", rep)
	}
	out, err := router.Predict("m", testBatch(1, 16), time.Now().Add(2*time.Second))
	if err != nil || out == nil {
		t.Fatalf("predict after reap: %v", err)
	}
}

// A replica benched by a transport failure rejoins the pick set once a
// health probe answers again: Peers.HealthRetry drives Unbench.
func TestFleetUnbenchRecovered(t *testing.T) {
	fleet, router := testFleet(t, 2)

	fleet.mu.Lock()
	victim := fleet.backends[0].(*clusterBackend)
	fleet.mu.Unlock()
	addr := victim.addr
	victim.srv.Close()

	// Drive traffic until the dead replica is benched (BenchUntilHealthy:
	// it stays benched however long recovery takes).
	row := testBatch(1, 16)
	deadlineAt := time.Now().Add(5 * time.Second)
	for len(router.Benched()) == 0 {
		if time.Now().After(deadlineAt) {
			t.Fatal("dead replica never got benched")
		}
		if _, err := router.Predict("m", row, time.Now().Add(time.Second)); err != nil {
			t.Fatalf("predict should fail over, got %v", err)
		}
	}
	if got := router.Benched(); len(got) != 1 || got[0] != addr {
		t.Fatalf("benched = %v, want [%s]", got, addr)
	}

	// Probe while still dead: nobody recovers, the bench holds.
	if rec := fleet.UnbenchRecovered(); len(rec) != 0 {
		t.Fatalf("recovered %v while endpoint is down", rec)
	}

	// Resurrect the endpoint on the same address and re-serve the model.
	srv2 := cluster.NewServer("replica", 99)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	svc2 := serving.NewService(serving.NewRegistry(), serving.BatchOptions{})
	serving.Attach(srv2, svc2)
	mv, err := serving.NewLinear("m", 1, testWeights(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.ServeModel(mv); err != nil {
		t.Fatal(err)
	}

	rec := fleet.UnbenchRecovered()
	if len(rec) != 1 || rec[0] != addr {
		t.Fatalf("recovered = %v, want [%s]", rec, addr)
	}
	if len(router.Benched()) != 0 {
		t.Fatalf("replica still benched after recovery: %v", router.Benched())
	}
}
