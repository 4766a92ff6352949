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
	"tfhpc/internal/rpc"
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
	donated map[string]bool // the feeds of DonatedPlaceholders
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
	rg := &randGraph{g: graph.New(), vars: make(map[string]bool), donated: make(map[string]bool)}
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
	for _, vec := range []bool{true, false} {
		ph := g.DonatedPlaceholder(fmt.Sprintf("in%d", len(rg.feeds)), tensor.Float64, nil)
		rg.feeds = append(rg.feeds, ph.Name())
		rg.donated[ph.Name()] = true
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
// tensor as it was, a donated one too. The caller then overwrites what it
// fed and did not donate, and what it fetched, which must not reach any
// variable or constant of later Runs. The reference evaluates its own build
// of the same graph. The graphs run in three places in turn: in a plain
// session, in a session that is a co-located task (every node placed on
// it, its resources the task's), and as a partition on a task behind an
// rpc stream, where feeds arrive decoded.
func TestAdoptMatchesCopyingReference(t *testing.T) {
	const (
		plain = iota
		colocated
		remote
	)
	adopted, copied, donations := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rg := newRandGraph(rand.New(rand.NewSource(seed)))
		refG := newRandGraph(rand.New(rand.NewSource(seed))).g
		r := rand.New(rand.NewSource(-seed))
		place := int(seed % 3)
		if place != plain {
			for _, n := range rg.g.Nodes() {
				n.SetDevice(graph.DeviceSpec{Job: taskA.job, Task: taskA.task, DeviceIndex: -1})
			}
		}
		taskRes, sessRes := NewResources(), (*Resources)(nil)
		var opts Options
		stop := func() {}
		switch place {
		case plain:
			sessRes = taskRes
		case colocated:
			sessRes, opts = taskRes, Options{LocalJob: taskA.job, LocalTask: taskA.task}
		case remote:
			var d Dialer
			d, stop = serveTask(t, taskRes)
			opts = Options{LocalJob: "client", Remote: d}
		}
		sess, err := New(rg.g, sessRes, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewResources()
		for _, name := range slices.Sorted(maps.Keys(rg.vars)) {
			init := randTensor(r, rg.vars[name])
			taskRes.Vars.Get(name).Assign(init)
			ref.Vars.Get(name).Assign(init)
		}
		var given, givenBits []*tensor.Tensor // donated feeds, and their bits when fed
		for run := 0; run < 3; run++ {
			feeds := make(map[string]*tensor.Tensor)
			refFeeds := make(map[string]*tensor.Tensor)
			for i, name := range rg.feeds {
				feeds[name] = randTensor(r, i%2 == 0)
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
				a, _ := taskRes.Vars.Get(name).Read()
				b, _ := ref.Vars.Get(name).Read()
				if !sameBits(a, b) {
					t.Fatalf("seed %d run %d: variable %s = %v, reference %v", seed, run, name, a, b)
				}
			}
			for name, f := range feeds {
				if !sameBits(f, refFeeds[name]) {
					t.Fatalf("seed %d run %d: feed %s changed to %v", seed, run, name, f)
				}
				if rg.donated[name] {
					given, givenBits = append(given, f), append(givenBits, refFeeds[name])
				} else {
					scribble(f)
				}
			}
			for _, f := range got {
				if !slices.Contains(given, f) {
					scribble(f)
				}
			}
		}
		// Later Runs' AssignAdds copy a variable's adopted tensor before
		// they change it, so a donated feed keeps its bits for good.
		for i, f := range given {
			if !sameBits(f, givenBits[i]) {
				t.Fatalf("seed %d: a donated feed changed to %v after later Runs", seed, f)
			}
		}
		sess.Close()
		stop()
		for _, p := range sess.plans {
			for i, n := range p.local.nodes {
				if n.Op() != opAssign {
					continue
				}
				if !p.local.adopt[i] {
					copied++
					continue
				}
				adopted++
				if src := n.Inputs()[0]; src.Op() == opRecv {
					donations++
				}
			}
		}
	}
	if adopted == 0 || copied == 0 || donations == 0 {
		t.Fatalf("the random graphs adopted %d Assign inputs (%d of them donated feeds) and copied %d; want some of each",
			adopted, donations, copied)
	}
	t.Logf("%d Assigns adopted their input (%d a donated feed), %d copied it", adopted, donations, copied)
}

// taskDialer opens partition streams to one task.
type taskDialer struct{ c *rpc.Client }

func (d taskDialer) DialTask(string, int) (*rpc.Stream, error) {
	return d.c.OpenStream(PartitionMethod)
}

// serveTask serves partitions over res on an rpc server, as a task does,
// and returns a Dialer onto it and the function that shuts it down.
func serveTask(t *testing.T, res *Resources) (Dialer, func()) {
	t.Helper()
	srv := rpc.NewServer()
	srv.HandleStream(PartitionMethod, NewHost(res).Serve)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.Dial(addr)
	return taskDialer{c}, func() {
		c.Close()
		srv.Close()
	}
}
