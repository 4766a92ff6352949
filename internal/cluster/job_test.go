package cluster

import (
	"errors"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// allReduceGraph is one worker's graph for the job tests: an AllReduce of
// the fed "x" over the group "g".
func allReduceGraph(_ int, device string) *graph.Graph {
	g := graph.New()
	g.WithDevice(device, func() {
		g.AddNamedOp("sum", "AllReduce", graph.Attrs{"group": "g"}, g.Placeholder("x", tensor.Float64, nil))
	})
	return g
}

// A driver whose worker count is not the job's task count would leave ranks
// of the ring un-driven, so opening the job fails at once, with more
// workers and with fewer, and joins no task to the group.
func TestOpenJobRejectsWrongWorkerCount(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	for _, workers := range []int{1, 4} {
		start := time.Now()
		if _, err := peers.OpenJob("", "g", workers, CollectiveOptions{}, allReduceGraph); err == nil {
			t.Fatalf("%d workers on a 2-task job: no error", workers)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%d workers on a 2-task job took %v to fail", workers, d)
		}
	}
	for w := range 2 {
		if _, err := lc.Server("worker", w).Res.Colls.Get("g"); err == nil {
			t.Fatalf("task %d joined the group of a job that failed to open", w)
		}
	}
}

// When one worker fails, Each aborts the group, so a peer blocked in a
// collective that the failed worker never joins fails too, and Each
// returns the first failure at once rather than after the receive timeout.
func TestEachAbortsBlockedPeers(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	job, err := peers.OpenJob("", "g", 2, CollectiveOptions{}, allReduceGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()

	failed := errors.New("worker 0 failed")
	done := make(chan error, 1)
	go func() {
		done <- job.Each(func(w int, sess *session.Session) error {
			if w == 0 {
				return failed
			}
			_, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(1)}, []string{"sum"}, nil)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != failed {
			t.Fatalf("Each returned %v, want worker 0's error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Each still running 2 s after worker 0 failed: the blocked peer was not aborted")
	}
}
