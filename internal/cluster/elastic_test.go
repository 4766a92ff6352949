package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/tensor"
)

// TestCoordinatorEpochMonotonic: every Init issues a strictly larger epoch.
func TestCoordinatorEpochMonotonic(t *testing.T) {
	const p = 2
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	coord := NewCoordinator(peers, "worker")

	var last uint64
	for i := 0; i < 3; i++ {
		epoch, err := coord.Init("grp", []int{0, 1}, CollectiveOptions{RecvTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("init %d: %v", i, err)
		}
		if epoch <= last {
			t.Fatalf("init %d: epoch %d did not advance past %d", i, epoch, last)
		}
		if coord.Epoch() != epoch {
			t.Fatalf("Epoch() = %d, want %d", coord.Epoch(), epoch)
		}
		last = epoch
	}
	if _, err := coord.Init("grp", nil, CollectiveOptions{}); err == nil {
		t.Fatal("init over zero tasks succeeded")
	}
}

// TestCoordinatorSurvivorsAndRebuild kills one task of three, lets the
// coordinator find the survivors, and rebuilds the group over them — the
// shrink half of the elastic protocol, down at the membership layer.
func TestCoordinatorSurvivorsAndRebuild(t *testing.T) {
	const p = 3
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	if err := peers.CheckJob("worker", lc.Spec().NumTasks("worker")); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(peers, "worker")
	// Keep probes of the dead task short; a refused connection is the answer
	// here, not a transient to ride out.
	coord.ProbeTimeout = time.Second
	coord.ProbePolicy.Attempts = 2
	coord.ProbePolicy.Base = 5 * time.Millisecond

	lc.Server("worker", 1).Close()
	alive := coord.Survivors([]int{0, 1, 2})
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 2 {
		t.Fatalf("survivors = %v, want [0 2]", alive)
	}

	if _, err := coord.Init("grp", alive, CollectiveOptions{RecvTimeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// The i-th survivor is rank i of the rebuilt group: an allreduce over the
	// two-task group must see width 2, not 3.
	var wg sync.WaitGroup
	errs := make([]error, len(alive))
	for i, task := range alive {
		wg.Add(1)
		go func(i, task int) {
			defer wg.Done()
			h, err := lc.Server("worker", task).Res.Colls.Get("grp")
			if err != nil {
				errs[i] = err
				return
			}
			out, err := h.AllReduce("k", tensor.ScalarF64(1), "sum")
			if err == nil && out.ScalarFloat() != 2 {
				err = fmt.Errorf("sum = %g, want 2", out.ScalarFloat())
			}
			errs[i] = err
		}(i, task)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}
}
