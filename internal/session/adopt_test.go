package session

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

// A fetched variable or constant is the caller's copy: a later AssignAdd
// does not change it, and writing it does not change the graph.
func TestFetchedVariableIsACopy(t *testing.T) {
	g := graph.New()
	g.AddNamedOp("v", "Variable", graph.Attrs{"var_name": "v"})
	c := g.AddNamedOp("c", "Const", graph.Attrs{"value": tensor.ScalarF64(7)})
	g.AddNamedOp("inc", "AssignAdd", graph.Attrs{"var_name": "v"}, g.Const(tensor.ScalarF64(1)))
	g.AddNamedOp("set", "Assign", graph.Attrs{"var_name": "v"}, g.AddOp("Neg", nil, c))
	sess, err := New(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(fetches, targets []string) []*tensor.Tensor {
		t.Helper()
		out, err := sess.Run(nil, fetches, targets)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sess.Resources().Vars.Get("v").Assign(tensor.ScalarF64(5))

	got := run([]string{"v", "c"}, nil)
	run(nil, []string{"inc"})
	if v := got[0].ScalarFloat(); v != 5 {
		t.Fatalf("fetched variable read %v after a later AssignAdd, want 5", v)
	}
	got[1].F64()[0] = 100
	if c := run([]string{"c"}, nil)[0].ScalarFloat(); c != 7 {
		t.Fatalf("writing a fetched constant changed the graph's constant to %v", c)
	}
	// An Assign's fetched output is the stored value's copy too.
	set := run([]string{"set"}, nil)[0]
	run(nil, []string{"inc"})
	if v := set.ScalarFloat(); v != -7 {
		t.Fatalf("fetched Assign output read %v after a later AssignAdd, want -7", v)
	}
}

// randGraph is a random DAG of FreshOutput ops over placeholders,
// constants and variable reads, with Assigns and AssignAdds into the
// variables. Every value is a float64 vector of vecLen elements or a
// scalar. Writes into a variable are ordered after every node built before
// them, and once a variable has taken an AssignAdd, later ops no longer
// read the values that may be its stored tensor (its Variable nodes, and
// Assigns that pass them on), which that AssignAdd writes in place. So
// every Run has one result whatever the executor's order.
type randGraph struct {
	g       *graph.Graph
	vars    map[string]bool // name → is a vector
	feeds   []string
	fetches []string
	targets []string
}

const vecLen = 5

func randTensor(r *rand.Rand, vec bool) *tensor.Tensor {
	if !vec {
		return tensor.ScalarF64(r.Float64()*2 - 1)
	}
	t := tensor.New(tensor.Float64, vecLen)
	for i := range t.F64() {
		t.F64()[i] = r.Float64()*2 - 1
	}
	return t
}

func newRandGraph(r *rand.Rand) *randGraph {
	rg := &randGraph{g: graph.New(), vars: make(map[string]bool)}
	g := rg.g
	pools := map[bool][]*graph.Node{}
	add := func(n *graph.Node, vec bool) { pools[vec] = append(pools[vec], n) }
	pick := func(vec bool) *graph.Node { return pools[vec][r.Intn(len(pools[vec]))] }
	stored := make(map[*graph.Node]string) // value → the variable whose tensor it may be
	for i := 0; i < 2+r.Intn(4); i++ {
		name, vec := fmt.Sprintf("v%d", i), i%2 == 0 || r.Intn(2) == 0
		rg.vars[name] = vec
		for k := r.Intn(3); k > 0; k-- {
			n := g.AddOp("Variable", graph.Attrs{"var_name": name})
			stored[n] = name
			add(n, vec)
		}
	}
	for _, vec := range []bool{true, false} {
		add(g.Const(randTensor(r, vec)), vec)
		ph := g.Placeholder(fmt.Sprintf("in%d", len(rg.feeds)), tensor.Float64, nil)
		rg.feeds = append(rg.feeds, ph.Name())
		add(ph, vec)
	}
	write := func(op, name string, vec bool) *graph.Node {
		w := g.AddOp(op, graph.Attrs{"var_name": name}, pick(vec))
		for _, n := range g.Nodes()[:w.ID()] {
			w.AddControlDep(n)
		}
		rg.targets = append(rg.targets, w.Name())
		return w
	}
	for step := 0; step < 6+r.Intn(14); step++ {
		name := fmt.Sprintf("v%d", r.Intn(len(rg.vars)))
		vec := rg.vars[name]
		switch r.Intn(12) {
		case 0, 1, 2:
			a := write("Assign", name, vec)
			stored[a] = stored[a.Inputs()[0]]
			add(a, vec)
		case 3:
			write("AssignAdd", name, vec)
			for kind := range pools {
				pools[kind] = slices.DeleteFunc(pools[kind], func(n *graph.Node) bool { return stored[n] == name })
			}
		case 4:
			add(g.AddOp("Neg", nil, pick(true)), true)
		case 5:
			add(g.AddOp("Add", nil, pick(true), pick(true)), true)
		case 6:
			add(g.AddOp("Mul", nil, pick(true), pick(true)), true)
		case 7:
			add(g.AddOp("AddN", nil, pick(true), pick(true), pick(true)), true)
		case 8:
			add(g.AddOp("Axpy", nil, pick(false), pick(true), pick(true)), true)
		case 9:
			add(g.AddOp("SliceRows", graph.Attrs{"begin": 0, "size": vecLen}, pick(true)), true)
		case 10:
			add(g.AddOp("Dot", nil, pick(true), pick(true)), false)
		case 11:
			add(g.AddOp("Sub", nil, pick(false), pick(false)), false)
		}
	}
	for _, vec := range []bool{true, false} {
		for _, n := range pools[vec] {
			if r.Intn(3) == 0 {
				rg.fetches = append(rg.fetches, n.Name())
			}
		}
	}
	if len(rg.fetches)+len(rg.targets) == 0 {
		rg.fetches = []string{pools[true][0].Name()}
	}
	return rg
}

// referenceRun evaluates every node of g in id order (a topological
// order) with Assigns that always copy, and returns copies of the fetches.
func referenceRun(g *graph.Graph, res *Resources, feeds map[string]*tensor.Tensor, fetches []string) ([]*tensor.Tensor, error) {
	vals := make([]*tensor.Tensor, g.NumNodes())
	for _, n := range g.Nodes() {
		if t, ok := feeds[n.Name()]; ok {
			vals[n.ID()] = t
			continue
		}
		in := make([]*tensor.Tensor, len(n.Inputs()))
		for j, src := range n.Inputs() {
			in[j] = vals[src.ID()]
		}
		out, err := ops.Run(n.Op(), &ops.Context{NodeName: n.Name(), Attrs: n.Attrs(), Resources: res}, in)
		if err != nil {
			return nil, err
		}
		vals[n.ID()] = out
	}
	out := make([]*tensor.Tensor, len(fetches))
	for i, f := range fetches {
		out[i] = vals[g.Lookup(f).ID()].Clone()
	}
	return out, nil
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || !a.Shape().Equal(b.Shape()) {
		return false
	}
	x, y := a.F64(), b.F64()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// scribble overwrites t, as a caller may do to a tensor it fed or fetched.
func scribble(t *tensor.Tensor) {
	for i := range t.F64() {
		t.F64()[i] = math.Inf(1)
	}
}

// Runs on random graphs give the fetches and variable contents of a
// reference that copies at every Assign, bit for bit, and leave every fed
// tensor as it was. The caller then overwrites what it fed and fetched,
// which must not reach any variable or constant of later Runs. The
// reference evaluates its own build of the same graph.
func TestAdoptMatchesCopyingReference(t *testing.T) {
	adopted, copied := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rg := newRandGraph(rand.New(rand.NewSource(seed)))
		refG := newRandGraph(rand.New(rand.NewSource(seed))).g
		r := rand.New(rand.NewSource(-seed))
		sess, err := New(rg.g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := NewResources()
		for _, name := range slices.Sorted(maps.Keys(rg.vars)) {
			init := randTensor(r, rg.vars[name])
			sess.Resources().Vars.Get(name).Assign(init)
			ref.Vars.Get(name).Assign(init)
		}
		for run := 0; run < 3; run++ {
			feeds := make(map[string]*tensor.Tensor)
			refFeeds := make(map[string]*tensor.Tensor)
			for i, name := range rg.feeds {
				feeds[name] = randTensor(r, i == 0)
				refFeeds[name] = feeds[name].Clone()
			}
			got, err := sess.Run(feeds, rg.fetches, rg.targets)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			want, err := referenceRun(refG, ref, refFeeds, rg.fetches)
			if err != nil {
				t.Fatalf("seed %d run %d: reference: %v", seed, run, err)
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("seed %d run %d: fetch %q = %v, reference %v", seed, run, rg.fetches[i], got[i], want[i])
				}
			}
			for name := range rg.vars {
				a, _ := sess.Resources().Vars.Get(name).Read()
				b, _ := ref.Vars.Get(name).Read()
				if !sameBits(a, b) {
					t.Fatalf("seed %d run %d: variable %s = %v, reference %v", seed, run, name, a, b)
				}
			}
			for name, f := range feeds {
				if !sameBits(f, refFeeds[name]) {
					t.Fatalf("seed %d run %d: feed %s changed to %v", seed, run, name, f)
				}
				scribble(f)
			}
			for _, f := range got {
				scribble(f)
			}
		}
		for _, p := range sess.plans {
			for i, n := range p.local.nodes {
				if n.Op() == opAssign {
					if p.local.adopt[i] {
						adopted++
					} else {
						copied++
					}
				}
			}
		}
	}
	if adopted == 0 || copied == 0 {
		t.Fatalf("the random graphs adopted %d and copied %d Assign inputs; want some of each", adopted, copied)
	}
	t.Logf("%d Assigns adopted their input, %d copied it", adopted, copied)
}
