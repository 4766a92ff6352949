package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tfhpc/internal/collective"
	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
	"tfhpc/internal/timeline"
)

// buildListing1 reproduces the paper's Listing 1: two random matrices
// generated on CPU, multiplied on GPU.
func buildListing1(g *graph.Graph) *graph.Node {
	var a, b, c *graph.Node
	g.WithDevice("/cpu:0", func() {
		a = g.AddOp("RandomUniform", graph.Attrs{
			"dtype": tensor.Float32, "shape": tensor.Shape{3, 3}, "seed": 1})
		b = g.AddOp("RandomUniform", graph.Attrs{
			"dtype": tensor.Float32, "shape": tensor.Shape{3, 3}, "seed": 2})
	})
	g.WithDevice("/gpu:0", func() {
		c = g.AddOp("MatMul", nil, a, b)
	})
	return c
}

func TestListing1MatMul(t *testing.T) {
	g := graph.New()
	c := buildListing1(g)
	sess, err := New(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []string{c.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tensor.Shape{3, 3}) {
		t.Fatalf("shape %v", out[0].Shape())
	}
	// Product of two matrices with entries in [0,1): every element in [0,3).
	for _, v := range out[0].F32() {
		if v < 0 || v >= 3 {
			t.Fatalf("implausible product element %v", v)
		}
	}
}

func TestFeedsOverrideNodes(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", tensor.Float64, tensor.Shape{2})
	y := g.Const(tensor.FromF64(tensor.Shape{2}, []float64{10, 20}))
	sum := g.AddOp("Add", nil, x, y)
	sess, _ := New(g, nil, Options{})

	out, err := sess.Run(map[string]*tensor.Tensor{
		"x": tensor.FromF64(tensor.Shape{2}, []float64{1, 2}),
	}, []string{sum.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F64()[0] != 11 || out[0].F64()[1] != 22 {
		t.Fatalf("sum = %v", out[0].F64())
	}
	// Unfed placeholder errors.
	if _, err := sess.Run(nil, []string{sum.Name()}, nil); err == nil {
		t.Fatal("unfed placeholder should error")
	}
	// Feeding a non-placeholder overrides it too (TF semantics).
	out, err = sess.Run(map[string]*tensor.Tensor{
		"x":      tensor.FromF64(tensor.Shape{2}, []float64{0, 0}),
		y.Name(): tensor.FromF64(tensor.Shape{2}, []float64{5, 5}),
	}, []string{sum.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F64()[0] != 5 {
		t.Fatalf("fed const: %v", out[0].F64())
	}
}

func TestVariablesPersistAcrossRuns(t *testing.T) {
	g := graph.New()
	init := g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "counter"},
		g.Const(tensor.ScalarF64(0)))
	inc := g.AddNamedOp("inc", "AssignAdd", graph.Attrs{"var_name": "counter"},
		g.Const(tensor.ScalarF64(1)))
	read := g.AddNamedOp("read", "Variable", graph.Attrs{"var_name": "counter"})

	sess, _ := New(g, nil, Options{})
	if _, err := sess.Run(nil, nil, []string{init.Name()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sess.Run(nil, nil, []string{inc.Name()}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Run(nil, []string{read.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarFloat() != 5 {
		t.Fatalf("counter = %v, want 5 (state must persist across runs)", out[0].ScalarFloat())
	}
}

func TestOnlyNeededSubgraphRuns(t *testing.T) {
	g := graph.New()
	a := g.Const(tensor.ScalarF64(1))
	// A poisoned branch: unfed placeholder. Fetching `a` must not touch it.
	ph := g.Placeholder("poison", tensor.Float64, nil)
	g.AddOp("Neg", nil, ph)
	sess, _ := New(g, nil, Options{})
	out, err := sess.Run(nil, []string{a.Name()}, nil)
	if err != nil {
		t.Fatalf("pruning failed: %v", err)
	}
	if out[0].ScalarFloat() != 1 {
		t.Fatal("wrong value")
	}
}

func TestParallelDiamondDependencies(t *testing.T) {
	g := graph.New()
	root := g.Const(tensor.FromF64(tensor.Shape{4}, []float64{1, 2, 3, 4}))
	l := g.AddOp("Scale", nil, g.Const(tensor.ScalarF64(2)), root)
	r := g.AddOp("Scale", nil, g.Const(tensor.ScalarF64(3)), root)
	join := g.AddOp("Add", nil, l, r)
	sess, _ := New(g, nil, Options{})
	out, err := sess.Run(nil, []string{join.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].F64()[3] != 20 {
		t.Fatalf("diamond = %v", out[0].F64())
	}
}

func TestControlDependencyOrdering(t *testing.T) {
	g := graph.New()
	init := g.AddNamedOp("init", "Assign", graph.Attrs{"var_name": "v"},
		g.Const(tensor.ScalarF64(100)))
	read := g.AddNamedOp("read", "Variable", graph.Attrs{"var_name": "v"})
	read.AddControlDep(init)
	sess, _ := New(g, nil, Options{})
	out, err := sess.Run(nil, []string{"read"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ScalarFloat() != 100 {
		t.Fatal("control dep did not order init before read")
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.New()
	g.Const(tensor.ScalarF64(1))
	sess, _ := New(g, nil, Options{})
	if _, err := sess.Run(nil, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown fetch should error")
	}
	if _, err := sess.Run(nil, nil, nil); err == nil {
		t.Fatal("empty run should error")
	}
	if _, err := sess.Run(map[string]*tensor.Tensor{"ghost": tensor.ScalarF64(1)},
		[]string{"nope"}, nil); err == nil {
		t.Fatal("unknown feed should error")
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	g := graph.New()
	a := g.Const(tensor.FromF64(tensor.Shape{2}, []float64{1, 2}))
	b := g.Const(tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3}))
	bad := g.AddOp("Add", nil, a, b)
	sess, _ := New(g, nil, Options{})
	_, err := sess.Run(nil, []string{bad.Name()}, nil)
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch error, got %v", err)
	}
}

func TestRemoteOpRequiresRunner(t *testing.T) {
	g := graph.New()
	var remote *graph.Node
	g.WithDevice("/job:ps/task:0", func() {
		remote = g.AddOp("Variable", graph.Attrs{"var_name": "w"})
	})
	sess, _ := New(g, nil, Options{LocalJob: "worker", LocalTask: 0})
	if _, err := sess.Run(nil, []string{remote.Name()}, nil); err == nil ||
		!strings.Contains(err.Error(), "no remote runner") {
		t.Fatalf("want remote-runner error, got %v", err)
	}
}

func TestTimelineCollection(t *testing.T) {
	g := graph.New()
	c := buildListing1(g)
	trace := timeline.New()
	sess, _ := New(g, nil, Options{Trace: trace})
	if _, err := sess.Run(nil, []string{c.Name()}, nil); err != nil {
		t.Fatal(err)
	}
	if trace.Len() != 3 {
		t.Fatalf("trace has %d events, want 3", trace.Len())
	}
	events := trace.Events()
	devices := map[string]bool{}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatal("event ends before it starts")
		}
		devices[ev.Device] = true
	}
	if !devices["/device:CPU:0"] || !devices["/device:GPU:0"] {
		t.Fatalf("expected CPU and GPU lanes, got %v", devices)
	}
	b, err := trace.MarshalChrome()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "traceEvents") || !strings.Contains(string(b), "MatMul") {
		t.Fatal("chrome JSON missing content")
	}
}

func TestParallelismLimit(t *testing.T) {
	g := graph.New()
	var outs []string
	for i := 0; i < 20; i++ {
		n := g.AddOp("RandomUniform", graph.Attrs{
			"dtype": tensor.Float64, "shape": tensor.Shape{64}, "seed": i})
		outs = append(outs, n.Name())
	}
	sess, _ := New(g, nil, Options{Parallelism: 2})
	res, err := sess.Run(nil, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatal("wrong fetch count")
	}
}

// TestExecutorCoalescesFusedAllReduces builds, per rank, a graph holding
// several independent AllReduceFused nodes: the parallel executor
// dispatches them concurrently, so the group's fusion buffer must coalesce
// one Run's posts into a single negotiated pass and still return the exact
// per-key sums.
func TestExecutorCoalescesFusedAllReduces(t *testing.T) {
	const p, K, n = 3, 6, 16
	res := NewResources()
	groups := collective.NewLoopbackGroups(p, collective.Options{
		Fusion: collective.FusionOptions{FlushTensors: K},
	})
	for r, grp := range groups {
		res.Colls.Register(fmt.Sprintf("fg%d", r), grp)
	}
	defer res.Colls.CloseAll()

	sessions := make([]*Session, p)
	fetches := make([]string, K)
	for r := 0; r < p; r++ {
		g := graph.New()
		for k := 0; k < K; k++ {
			ph := g.Placeholder(fmt.Sprintf("in%d", k), tensor.Float64, tensor.Shape{n})
			node := g.AddNamedOp(fmt.Sprintf("fused%d", k), "AllReduceFused",
				graph.Attrs{"group": fmt.Sprintf("fg%d", r), "key": fmt.Sprintf("k%d", k)}, ph)
			fetches[k] = node.Name()
		}
		sess, err := New(g, res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = sess
	}

	ins := make([][]*tensor.Tensor, p) // ins[r][k]
	want := make([][]float64, K)
	for k := range want {
		want[k] = make([]float64, n)
	}
	for r := 0; r < p; r++ {
		ins[r] = make([]*tensor.Tensor, K)
		for k := 0; k < K; k++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(100*r + 10*k + i)
				want[k][i] += v[i]
			}
			ins[r][k] = tensor.FromF64(tensor.Shape{n}, v)
		}
	}

	outs := make([][]*tensor.Tensor, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			feeds := map[string]*tensor.Tensor{}
			for k := 0; k < K; k++ {
				feeds[fmt.Sprintf("in%d", k)] = ins[r][k]
			}
			outs[r], errs[r] = sessions[r].Run(feeds, fetches, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for k := 0; k < K; k++ {
			for i := 0; i < n; i++ {
				if outs[r][k].F64()[i] != want[k][i] {
					t.Fatalf("rank %d key %d elem %d = %g, want %g", r, k, i, outs[r][k].F64()[i], want[k][i])
				}
			}
		}
	}
}

// TestGatherVOp runs the GatherV op in one graph per rank: the rank named
// by the "root" attr fetches every rank's rows in rank order, the others
// zero rows of the same trailing shape.
func TestGatherVOp(t *testing.T) {
	const p, root, cols = 3, 1, 2
	res := NewResources()
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	for r, grp := range groups {
		res.Colls.Register(fmt.Sprintf("gv%d", r), grp)
	}
	defer res.Colls.CloseAll()

	outs := make([]*tensor.Tensor, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		g := graph.New()
		ph := g.Placeholder("x", tensor.Float64, tensor.Shape{r, cols})
		gv := g.AddNamedOp("gv", "GatherV", graph.Attrs{"group": fmt.Sprintf("gv%d", r), "root": root}, ph)
		sess, err := New(g, res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, r*cols)
		for i := range v {
			v[i] = float64(10*r + i)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var out []*tensor.Tensor
			out, errs[r] = sess.Run(map[string]*tensor.Tensor{"x": tensor.FromF64(tensor.Shape{r, cols}, v)},
				[]string{gv.Name()}, nil)
			if errs[r] == nil {
				outs[r] = out[0]
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		want := tensor.Shape{0, cols}
		if r == root {
			want = tensor.Shape{3, cols} // 0 + 1 + 2 rows
		}
		if !outs[r].Shape().Equal(want) {
			t.Fatalf("rank %d: shape %v, want %v", r, outs[r].Shape(), want)
		}
	}
	if got := fmt.Sprint(outs[root].F64()); got != "[10 11 20 21 22 23]" {
		t.Fatalf("root gathered %s", got)
	}
}

// TestAsyncAllReduceSpansRuns starts a collective in one session Run and
// joins it in a later one — the double-buffered handle contract the SGD
// loss pipeline relies on.
func TestAsyncAllReduceSpansRuns(t *testing.T) {
	const p = 2
	res := NewResources()
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	for r, grp := range groups {
		res.Colls.Register(fmt.Sprintf("ag%d", r), grp)
	}
	defer res.Colls.CloseAll()

	sessions := make([]*Session, p)
	for r := 0; r < p; r++ {
		g := graph.New()
		ph := g.Placeholder("x", tensor.Float64, nil)
		g.AddNamedOp("start", "AllReduceStart",
			graph.Attrs{"group": fmt.Sprintf("ag%d", r), "key": "s", "handle": "h"}, ph)
		g.AddNamedOp("join", "AllReduceJoin",
			graph.Attrs{"group": fmt.Sprintf("ag%d", r), "handle": "h"})
		sess, err := New(g, res, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = sess
	}
	errs := make([]error, p)
	vals := make([]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := sessions[r].Run(map[string]*tensor.Tensor{"x": tensor.ScalarF64(float64(r + 1))},
				nil, []string{"start"}); err != nil {
				errs[r] = err
				return
			}
			out, err := sessions[r].Run(nil, []string{"join"}, nil)
			if err != nil {
				errs[r] = err
				return
			}
			vals[r] = out[0].ScalarFloat()
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if vals[r] != 3 { // 1 + 2
			t.Fatalf("rank %d: joined %g, want 3", r, vals[r])
		}
	}
}
