package cluster

import (
	"runtime"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// psGraph spans a client and three tasks: worker 0 generates, ps
// accumulates it (task → task), worker 1 doubles the sum (task → task) and
// the client negates it (task → client), with x fed in (client → task).
func psGraph() *graph.Graph {
	g := graph.New()
	var gen, acc, dbl *graph.Node
	g.WithDevice("/job:worker/task:0", func() {
		gen = g.AddNamedOp("gen", "Add", nil, g.Placeholder("x", tensor.Float64, nil), g.Const(tensor.ScalarF64(1)))
	})
	g.WithDevice("/job:ps/task:0", func() {
		acc = g.AddNamedOp("acc", "AssignAdd", graph.Attrs{"var_name": "acc"}, gen)
		g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "acc"}, g.Const(tensor.ScalarF64(0)))
	})
	g.WithDevice("/job:worker/task:1", func() {
		dbl = g.AddNamedOp("dbl", "Scale", nil, g.Const(tensor.ScalarF64(2)), acc)
	})
	g.WithDevice("/job:client", func() { g.AddNamedOp("neg", "Neg", nil, dbl) })
	return g
}

func (l *Local) partitions() int {
	n := 0
	for _, srvs := range l.Servers {
		for _, s := range srvs {
			n += s.Partitions()
		}
	}
	return n
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionCloseReleasesPartitions is the cluster's leak check: sessions
// register partitions on real task servers, and Close must bring every
// server's partition count and the process's goroutine count back to
// baseline.
func TestSessionCloseReleasesPartitions(t *testing.T) {
	lc, err := StartLocal(map[string]int{"ps": 1, "worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()

	session1 := func() {
		sess, err := session.New(psGraph(), nil, session.Options{LocalJob: "client", Remote: peers})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Run(nil, nil, []string{"init"}); err != nil {
			t.Fatal(err)
		}
		for x := 1.0; x <= 3; x++ {
			out, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(x)}, []string{"neg"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// acc after feeding 1..x is Σ(j+1) = x(x+3)/2; neg = −2·acc.
			if want := -x * (x + 3); out[0].ScalarFloat() != want {
				t.Fatalf("x=%g: neg = %g, want %g", x, out[0].ScalarFloat(), want)
			}
		}
		if lc.partitions() != 4 { // init on ps, then one each on worker 0, ps, worker 1
			t.Fatalf("%d partitions registered, want 4", lc.partitions())
		}
	}
	// The first session dials the stream connections later ones share.
	session1()
	waitUntil(t, "partitions to drop", func() bool { return lc.partitions() == 0 })
	time.Sleep(50 * time.Millisecond)
	base := runtime.NumGoroutine()
	// Close does not wait for the tasks to drop a session's partitions, so
	// each session waits for the last one's to go before it counts its own.
	for i := 0; i < 3; i++ {
		session1()
		waitUntil(t, "partitions to drop", func() bool { return lc.partitions() == 0 })
	}
	waitUntil(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// A task that dies fails the Runs that need it; once it is back on its
// address, the same session re-registers there and runs again.
func TestSessionSurvivesTaskRestart(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	g := graph.New()
	g.WithDevice("/job:worker/task:0", func() {
		g.AddNamedOp("y", "Neg", nil, g.Placeholder("x", tensor.Float64, nil))
	})
	sess, err := session.New(g, nil, session.Options{LocalJob: "client", Remote: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run := func() error {
		out, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(3)}, []string{"y"}, nil)
		if err == nil && out[0].ScalarFloat() != -3 {
			t.Fatalf("y = %g", out[0].ScalarFloat())
		}
		return err
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	addr := lc.Spec()["worker"][0]
	lc.Server("worker", 0).Close()
	if err := run(); err == nil {
		t.Fatal("Run against a dead task should fail")
	}
	srv := NewServer("worker", 0)
	if _, err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := run(); err != nil {
		t.Fatalf("Run after the task restarted: %v", err)
	}
	if srv.Partitions() != 1 {
		t.Fatalf("restarted task holds %d partitions, want the re-registered 1", srv.Partitions())
	}
}

// deadSendDialer hands out one dead stream first — its send side closed,
// its receive side open on a handler that never answers — and real
// partition streams after that.
type deadSendDialer struct {
	*Peers
	dead *rpc.Stream
}

func (d *deadSendDialer) DialTask(job string, task int) (*rpc.Stream, error) {
	if st := d.dead; st != nil {
		d.dead = nil
		return st, nil
	}
	return d.Peers.DialTask(job, task)
}

// TestSessionRedialsAfterFailedSend: a Run whose frame fails to send must
// fail its stream at once, so the next Run dials a fresh one. The dead
// stream's receive side never ends, so a session that waited for its read
// loop to notice would hand the next Run the same dead stream.
func TestSessionRedialsAfterFailedSend(t *testing.T) {
	lc, err := StartLocal(map[string]int{"worker": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()

	release := make(chan struct{})
	stuck := rpc.NewServer()
	stuck.HandleStream("Stuck", func(*rpc.Stream) error {
		<-release
		return nil
	})
	addr, err := stuck.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		stuck.Close()
	}()
	c := rpc.Dial(addr)
	defer c.Close()
	dead, err := c.OpenStream("Stuck")
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.CloseSend(); err != nil {
		t.Fatal(err)
	}

	g := graph.New()
	g.WithDevice("/job:worker/task:0", func() {
		g.AddNamedOp("y", "Neg", nil, g.Placeholder("x", tensor.Float64, nil))
	})
	sess, err := session.New(g, nil, session.Options{LocalJob: "client",
		Remote: &deadSendDialer{Peers: peers, dead: dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run := func() error {
		out, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(3)}, []string{"y"}, nil)
		if err == nil && out[0].ScalarFloat() != -3 {
			t.Fatalf("y = %g", out[0].ScalarFloat())
		}
		return err
	}
	if err := run(); err == nil {
		t.Fatal("Run over a stream that cannot send should fail")
	}
	if err := run(); err != nil {
		t.Fatalf("Run after a failed send: %v", err)
	}
}

// Peers.Session runs a graph placed on a task that serves in this process
// in the caller's session, against that task's resources and with no
// partition registered there; under TFHPC_NO_SHM=1 it registers the graph
// on the task as a partition. Closing the task unpublishes it.
func TestPeersSessionOnColocatedTask(t *testing.T) {
	for _, noShm := range []string{"", "1"} {
		t.Setenv("TFHPC_NO_SHM", noShm)
		lc, err := StartLocal(map[string]int{"worker": 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := lc.Server("worker", 0)
		peers := NewPeers(lc.Spec())
		g := graph.New()
		g.WithDevice("/job:worker/task:0", func() {
			g.AddNamedOp("set", "Assign", graph.Attrs{"var_name": "v"}, g.Const(tensor.ScalarF64(3)))
		})
		sess, err := peers.Session(g, "worker", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(nil, nil, []string{"set"}); err != nil {
			t.Fatal(err)
		}
		if v, err := srv.Res.Vars.Get("v").Read(); err != nil || v.ScalarFloat() != 3 {
			t.Fatalf("TFHPC_NO_SHM=%q: the task's variable reads %v (%v), want 3", noShm, v, err)
		}
		if want := len(noShm); srv.Partitions() != want {
			t.Fatalf("TFHPC_NO_SHM=%q: the task holds %d partitions, want %d", noShm, srv.Partitions(), want)
		}
		sess.Close()
		peers.Close()
		lc.Close()
		if n := Published(); n != 0 {
			t.Fatalf("closed tasks are still published under %d addresses", n)
		}
	}
}
