package session

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

// testTasks is a cluster in miniature: one rpc server per task, each
// hosting partitions over its own resources, and a Dialer onto them.
type testTasks struct {
	hosts   map[taskKey]*Host
	res     map[taskKey]*Resources
	clients map[taskKey]*rpc.Client
}

func startTasks(t *testing.T, tasks ...taskKey) *testTasks {
	t.Helper()
	tt := &testTasks{hosts: map[taskKey]*Host{}, res: map[taskKey]*Resources{}, clients: map[taskKey]*rpc.Client{}}
	for _, k := range tasks {
		res := NewResources()
		h := NewHost(res)
		srv := rpc.NewServer()
		srv.HandleStream(PartitionMethod, h.Serve)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.Dial(addr)
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		tt.hosts[k], tt.res[k], tt.clients[k] = h, res, c
	}
	return tt
}

func (tt *testTasks) DialTask(job string, task int) (*rpc.Stream, error) {
	c := tt.clients[taskKey{job, task}]
	if c == nil {
		return nil, fmt.Errorf("no task /job:%s/task:%d", job, task)
	}
	return c.OpenStream(PartitionMethod)
}

// partitions sums the partitions registered across the tasks.
func (tt *testTasks) partitions() int {
	n := 0
	for _, h := range tt.hosts {
		n += h.Partitions()
	}
	return n
}

var (
	taskA = taskKey{"worker", 0}
	taskB = taskKey{"worker", 1}
)

func on(g *graph.Graph, k taskKey, body func()) {
	g.WithDevice(fmt.Sprintf("/job:%s/task:%d", k.job, k.task), body)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runWithin fails the test if a Run does not return in time (a hang is the
// failure mode partitioned execution must never have).
func runWithin(t *testing.T, sess *Session, feeds map[string]*tensor.Tensor, fetches, targets []string) ([]*tensor.Tensor, error) {
	t.Helper()
	type result struct {
		out []*tensor.Tensor
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := sess.Run(feeds, fetches, targets)
		ch <- result{out, err}
	}()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung")
		return nil, nil
	}
}

// chainGraph crosses every kind of partition edge:
//
//	a = 2          on A
//	b = 3·a        on B   (A → B, relayed through the client)
//	c = a + b      on A   (B → A: the chain A → B → A)
//	d = c + x      on A   (x fed: client → A)
//	e = −d         here   (A → client)
func chainGraph() *graph.Graph {
	g := graph.New()
	var a, b, c, d *graph.Node
	on(g, taskA, func() { a = g.AddNamedOp("a", "Identity", nil, g.Const(tensor.ScalarF64(2))) })
	on(g, taskB, func() { b = g.AddNamedOp("b", "Scale", nil, g.Const(tensor.ScalarF64(3)), a) })
	on(g, taskA, func() {
		c = g.AddNamedOp("c", "Add", nil, a, b)
		d = g.AddNamedOp("d", "Add", nil, c, g.Placeholder("x", tensor.Float64, nil))
	})
	g.WithDevice("/job:client", func() { g.AddNamedOp("e", "Neg", nil, d) })
	return g
}

func TestPartitionEdgesAndChain(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	sess, err := New(chainGraph(), nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 3; i++ {
		x := float64(10 * i)
		out, err := runWithin(t, sess, map[string]*tensor.Tensor{"x": tensor.ScalarF64(x)},
			[]string{"e", "b", "d"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out[0].ScalarFloat(), -(8 + x); got != want {
			t.Fatalf("run %d: e = %g, want %g", i, got, want)
		}
		if out[1].ScalarFloat() != 6 || out[2].ScalarFloat() != 8+x {
			t.Fatalf("run %d: b = %g, d = %g", i, out[1].ScalarFloat(), out[2].ScalarFloat())
		}
	}
	// Registered once, on the first Run: one partition per task.
	if got := tt.partitions(); got != 2 {
		t.Fatalf("%d partitions registered, want 2", got)
	}
}

// Values above maxChunkBytes travel as a head frame plus more frames; fed
// in, relayed task to task and fetched back, they must arrive bit for bit.
func TestPartitionChunkedValues(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	g := graph.New()
	var a, b *graph.Node
	on(g, taskA, func() {
		a = g.AddNamedOp("a", "Scale", nil, g.Placeholder("s", tensor.Float32, nil), g.Placeholder("x", tensor.Float32, nil))
	})
	on(g, taskB, func() { b = g.AddNamedOp("b", "Neg", nil, a) })
	g.WithDevice("/job:client", func() { g.AddNamedOp("c", "Neg", nil, b) })
	sess, err := New(g, nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// 3 rows of a chunk and a bit: 4 chunks, the last one short.
	x := tensor.RandomUniform(tensor.Float32, 7, 3, maxChunkBytes/4+5)
	for i := 0; i < 2; i++ {
		out, err := runWithin(t, sess, map[string]*tensor.Tensor{"x": x, "s": tensor.ScalarF32(1)}, []string{"c", "b"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !out[0].Equal(x) {
			t.Fatalf("run %d: c differs from the fed x", i)
		}
		if out[1].F32()[5] != -x.F32()[5] || !out[1].Shape().Equal(x.Shape()) {
			t.Fatalf("run %d: b = %v..., want −x", i, out[1].Shape())
		}
	}
}

// A control edge that leaves task A and comes back (A → client → A) must
// order A's own nodes: get runs after inc in every Run.
func TestPartitionControlEdges(t *testing.T) {
	tt := startTasks(t, taskA)
	g := graph.New()
	var inc, mid *graph.Node
	on(g, taskA, func() {
		g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "v"}, g.Const(tensor.ScalarF64(0)))
		inc = g.AddNamedOp("inc", "AssignAdd", graph.Attrs{"var_name": "v"}, g.Const(tensor.ScalarF64(1)))
	})
	g.WithDevice("/job:client", func() {
		mid = g.AddNamedOp("mid", "Identity", nil, g.Const(tensor.ScalarF64(0)))
		mid.AddControlDep(inc)
	})
	on(g, taskA, func() {
		g.AddNamedOp("get", "Variable", graph.Attrs{"var_name": "v"}).AddControlDep(mid)
	})
	sess, err := New(g, nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := runWithin(t, sess, nil, nil, []string{"init"}); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		out, err := runWithin(t, sess, nil, []string{"get"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].ScalarFloat() != float64(k) {
			t.Fatalf("run %d read %g: the control edge did not order inc before get", k, out[0].ScalarFloat())
		}
	}
}

func TestPartitionConcurrentRuns(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	sess, err := New(chainGraph(), nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const goroutines, runs = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				x := float64(gi*1000 + i)
				out, err := sess.Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(x)}, []string{"e"}, nil)
				if err != nil {
					errs <- err
					return
				}
				if got := out[0].ScalarFloat(); got != -(8 + x) {
					errs <- fmt.Errorf("goroutine %d run %d: e = %g, want %g", gi, i, got, -(8 + x))
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A partition that fails must fail the Run, and the partition waiting on
// its output must be aborted rather than left blocked.
func TestPartitionFailureAbortsPeers(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	g := graph.New()
	var bad *graph.Node
	on(g, taskA, func() {
		bad = g.AddNamedOp("bad", "Add", nil,
			g.Const(tensor.FromF64(tensor.Shape{2}, []float64{1, 2})),
			g.Const(tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3})))
		g.AddNamedOp("ok", "Identity", nil, g.Const(tensor.ScalarF64(1)))
	})
	on(g, taskB, func() { g.AddNamedOp("after", "Neg", nil, bad) })
	sess, err := New(g, nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := runWithin(t, sess, nil, []string{"after"}, nil)
		if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
			t.Fatalf("run %d: want the partition's shape mismatch, got %v", i, err)
		}
	}
	// The streams survive a failed Run.
	if out, err := runWithin(t, sess, nil, []string{"ok"}, nil); err != nil || out[0].ScalarFloat() != 1 {
		t.Fatalf("Run after a failure: %v, %v", out, err)
	}
	// Closing drops every partition, which waits for their runs to end: a
	// peer still blocked on the failed value would hold the count up.
	sess.Close()
	waitFor(t, "partitions to drop", func() bool { return tt.partitions() == 0 })
	if _, err := sess.Run(nil, []string{"ok"}, nil); err == nil {
		t.Fatal("Run after Close should fail")
	}
}

func TestPartitionCloseReleasesGoroutines(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	// The baseline counts what outlives sessions: each task's stream
	// connection, dialed by the first session and shared by the rest.
	base := -1
	for i := 0; i < 4; i++ {
		sess, err := New(chainGraph(), nil, Options{LocalJob: "client", Remote: tt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runWithin(t, sess, map[string]*tensor.Tensor{"x": tensor.ScalarF64(1)}, []string{"e"}, nil); err != nil {
			t.Fatal(err)
		}
		if tt.partitions() == 0 {
			t.Fatal("no partitions registered while the session is open")
		}
		sess.Close()
		waitFor(t, "partitions to drop", func() bool { return tt.partitions() == 0 })
		if base < 0 {
			waitFor(t, "the first session's goroutines to exit", func() bool {
				n := runtime.NumGoroutine()
				time.Sleep(20 * time.Millisecond)
				return runtime.NumGoroutine() == n
			})
			base = runtime.NumGoroutine()
		}
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// A Run whose needed nodes are all here compiles to a plan with no remote
// partition, even in a session whose graph spans tasks, and never dials.
func TestPartitionLocalOnlyRun(t *testing.T) {
	g := chainGraph()
	g.WithDevice("/job:client", func() { g.AddNamedOp("here", "Neg", nil, g.Const(tensor.ScalarF64(4))) })
	sess, err := New(g, nil, Options{LocalJob: "client", Remote: &testTasks{}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []string{"here"}, nil)
	if err != nil || out[0].ScalarFloat() != -4 {
		t.Fatalf("local-only Run: %v, %v", out, err)
	}
}

// A fed node's producers do not run: a Run is pruned at its feeds, whether
// the graph runs here or on a task.
func TestFeedPrunesProducers(t *testing.T) {
	for _, row := range []struct {
		name   string
		onTask bool
	}{{"all-local", false}, {"partitioned", true}} {
		t.Run(row.name, func(t *testing.T) {
			g := graph.New()
			build := func() {
				g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "counter"}, g.Const(tensor.ScalarF64(0)))
				inc := g.AddNamedOp("inc", "AssignAdd", graph.Attrs{"var_name": "counter"}, g.Const(tensor.ScalarF64(1)))
				g.AddNamedOp("read", "Variable", graph.Attrs{"var_name": "counter"})
				g.AddNamedOp("out", "Neg", nil, g.AddNamedOp("id", "Identity", nil, inc))
			}
			var opts Options
			if row.onTask {
				on(g, taskA, build)
				opts = Options{LocalJob: "client", Remote: startTasks(t, taskA)}
			} else {
				build()
			}
			sess, err := New(g, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := runWithin(t, sess, nil, nil, []string{"init"}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				out, err := runWithin(t, sess, map[string]*tensor.Tensor{"id": tensor.ScalarF64(5)}, []string{"out"}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if out[0].ScalarFloat() != -5 {
					t.Fatalf("run %d: out = %g, want -5", i, out[0].ScalarFloat())
				}
			}
			out, err := runWithin(t, sess, nil, []string{"read"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[0].ScalarFloat(); got != 0 {
				t.Fatalf("counter = %g after 3 Runs that feed id, want 0: the fed node's producer ran", got)
			}
		})
	}
}

// A Run in which no node runs — every fetch fed, or a fed node as the only
// target — returns at once, on a session with Remote set too, and dials no
// task.
func TestZeroWorkRuns(t *testing.T) {
	tt := startTasks(t, taskA, taskB)
	for _, row := range []struct {
		name string
		opts Options
	}{{"all-local", Options{}}, {"remote", Options{LocalJob: "client", Remote: tt}}} {
		t.Run(row.name, func(t *testing.T) {
			sess, err := New(chainGraph(), nil, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			feeds := map[string]*tensor.Tensor{"d": tensor.ScalarF64(7), "b": tensor.ScalarF64(9)}
			out, err := runWithin(t, sess, feeds, []string{"d", "b", "d"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []float64{7, 9, 7} {
				if out[i].ScalarFloat() != want {
					t.Fatalf("fetch %d = %g, want its fed %g", i, out[i].ScalarFloat(), want)
				}
			}
			out, err = runWithin(t, sess, map[string]*tensor.Tensor{"d": tensor.ScalarF64(7)}, nil, []string{"d"})
			if err != nil || len(out) != 0 {
				t.Fatalf("target-only Run of a fed node: %v, %v", out, err)
			}
			if got := tt.partitions(); got != 0 {
				t.Fatalf("%d partitions registered, want 0", got)
			}
		})
	}
}
