package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// joinGroup joins the p tasks of job "worker" into the collective group
// "grp" through OpenJob, whose sessions it does not use.
func joinGroup(t *testing.T, peers *Peers, p int) {
	t.Helper()
	job, err := peers.OpenJob("", "grp", p, CollectiveOptions{}, func(int, string) *graph.Graph { return graph.New() })
	if err != nil {
		t.Fatal(err)
	}
	job.Close()
}

// TestInitCollectiveAndRemoteAllReduce stands up a 4-task cluster, joins the
// tasks into a TCP collective group, and drives an AllReduce graph op on
// each task from client-side sessions — the full distributed path the CG and
// SGD apps use.
func TestInitCollectiveAndRemoteAllReduce(t *testing.T) {
	const p = 4
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	joinGroup(t, peers, p)

	n := 33
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, p)
	errs := make([]error, p)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := graph.New()
			g.WithDevice(fmt.Sprintf("/job:worker/task:%d", w), func() {
				v := make([]float64, n)
				for i := range v {
					v[i] = float64(w + i)
				}
				in := g.Const(tensor.FromF64(tensor.Shape{n}, v))
				g.AddNamedOp("sum", "AllReduce", graph.Attrs{"group": "grp"}, in)
			})
			sess, err := session.New(g, nil, session.Options{
				LocalJob: "client", Remote: peers,
			})
			if err != nil {
				errs[w] = err
				return
			}
			out, err := sess.Run(nil, []string{"sum"}, nil)
			if err != nil {
				errs[w] = err
				return
			}
			outs[w] = out[0]
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 0; w < p; w++ {
		for i := 0; i < n; i++ {
			want := float64(0+1+2+3) + float64(p*i)
			if got := outs[w].F64()[i]; got != want {
				t.Fatalf("worker %d elem %d = %g, want %g", w, i, got, want)
			}
		}
	}
}

// TestCollInitReplacesGroup re-initialises the same group name and checks
// the new membership works (drivers that restart must be able to rebuild
// their rings on living servers). Round 1's requests still carry the retired
// chunk-bytes (5), receive-timeout (6), algorithm (8), switch-bytes (9),
// fusion flush-bytes (10) and flush-interval (12) fields, which a task
// skips.
func TestCollInitReplacesGroup(t *testing.T) {
	const p = 2
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	retired := wire.NewEncoder()
	retired.Int(5, 64)
	retired.Int(6, 5000)
	retired.String(8, "ring")
	retired.Int(9, 1<<20)
	retired.Int(10, 1<<16)
	retired.Int(12, 1000)
	for round := 0; round < 2; round++ {
		if round == 0 {
			joinGroup(t, peers, p)
		}
		epoch := uint64(time.Now().UnixNano())
		for i := 0; round == 1 && i < p; i++ {
			req := append(encodeCollInit(&collInit{group: "grp", rank: i, addrs: lc.Spec()["worker"], epoch: epoch}), retired.Bytes()...)
			if _, err := lc.Server("worker", i).handleCollInit(req); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, p)
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h, err := lc.Server("worker", w).Res.Colls.Get("grp")
				if err != nil {
					errs[w] = err
					return
				}
				out, err := h.AllReduce("k", tensor.ScalarF64(1), "sum")
				if err == nil && out.ScalarFloat() != float64(p) {
					err = fmt.Errorf("sum = %g, want %d", out.ScalarFloat(), p)
				}
				errs[w] = err
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
	}
}

// TestAbortCollectiveUnblocksRanks: a driver that fails mid-run aborts the
// group; ranks blocked inside a collective must error out promptly instead
// of waiting for the receive timeout.
func TestAbortCollectiveUnblocksRanks(t *testing.T) {
	const p = 2
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	joinGroup(t, peers, p)
	// Task 0 enters the collective alone (task 1's driver "failed").
	done := make(chan error, 1)
	go func() {
		h, err := lc.Server("worker", 0).Res.Colls.Get("grp")
		if err != nil {
			done <- err
			return
		}
		_, err = h.AllReduce("k", tensor.ScalarF64(1), "sum")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	peers.AbortCollective("worker", "grp")
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted collective succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not unblock the collective")
	}
}

// TestServerCloseUnblocksCollective: closing a server while a peer is mid
// collective must error the peer out (drain would otherwise deadlock on the
// blocked RunOp).
func TestServerCloseUnblocksCollective(t *testing.T) {
	const p = 2
	lc, err := StartLocal(map[string]int{"worker": p})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	joinGroup(t, peers, p)
	// Task 0 enters the collective alone; task 1 never joins. Closing task 0
	// must surface an error instead of hanging until the recv timeout.
	done := make(chan error, 1)
	go func() {
		h, err := lc.Server("worker", 0).Res.Colls.Get("grp")
		if err != nil {
			done <- err
			return
		}
		_, err = h.AllReduce("k", tensor.ScalarF64(1), "sum")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		lc.Server("worker", 0).Close()
		close(closed)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("lone collective succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collective hung through server close")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server close hung")
	}
}
