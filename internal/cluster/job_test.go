package cluster

import (
	"errors"
	"fmt"
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

// Every open on one Peers issues a strictly larger epoch, never behind the
// wall clock, whether it opens a subset of the job's tasks or all of them
// (OpenJob after subset opens of the same group), and an open over no tasks
// is rejected.
func TestOpenJobEpochsIncrease(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	last := uint64(time.Now().UnixNano())
	for i, tasks := range [][]int{{0, 1}, {1}, {0, 1}, nil} {
		var job *Job
		if tasks == nil {
			job, err = peers.OpenJob("", "g", 2, CollectiveOptions{}, allReduceGraph)
		} else {
			job, err = peers.OpenJobTasks("", "g", tasks, CollectiveOptions{}, allReduceGraph)
		}
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		job.Close()
		if job.epoch <= last {
			t.Fatalf("open %d: epoch %d did not advance past %d", i, job.epoch, last)
		}
		last = job.epoch
	}
	if _, err := peers.OpenJobTasks("", "g", nil, CollectiveOptions{}, allReduceGraph); err == nil {
		t.Fatal("open over zero tasks succeeded")
	}
}

// With one task of three dead, an open over the survivors makes a group of
// width 2: the i-th survivor is rank and slot i, and an AllReduce over the
// group sums two ranks, not three.
func TestOpenJobTasksOverSurvivors(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	lc.Server("worker", 1).Close()
	if err := peers.Health("worker", 1); err == nil {
		t.Fatal("closed task 1 still answers Health")
	}
	job, err := peers.OpenJobTasks("", "g", []int{0, 2}, CollectiveOptions{}, allReduceGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	if n := len(job.Sessions()); n != 2 {
		t.Fatalf("%d sessions, want 2", n)
	}
	if err := job.Each(func(w int, sess *session.Session) error {
		out, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(1)}, []string{"sum"}, nil)
		if err == nil && out[0].ScalarFloat() != 2 {
			err = fmt.Errorf("slot %d: sum = %g, want 2", w, out[0].ScalarFloat())
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
