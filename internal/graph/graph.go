// Package graph implements the dataflow graph at the heart of the runtime:
// named operation nodes connected by tensor-carrying edges, with per-node
// device placement, control dependencies, validation, topological ordering
// and a GraphDef binary serialization bounded by the 2 GiB ProtoBuf limit
// the paper discusses. Graphs are built once and executed many times by a
// Session (deferred execution — "Graph mode").
package graph

import (
	"fmt"
	"sort"

	"tfhpc/internal/tensor"
)

// Attrs carries per-node attributes (dtype, shape, const values, queue
// names, ...). Values must be one of: int, int64, float64, string, bool,
// tensor.DType, tensor.Shape, or *tensor.Tensor.
type Attrs map[string]any

// Node is one operation instance in a graph. Nodes produce a single output
// tensor (multi-output ops are modelled as sibling nodes sharing state).
type Node struct {
	id       int
	name     string
	op       string
	inputs   []*Node
	controls []*Node
	device   DeviceSpec
	attrs    Attrs
}

// ID returns the node's position in graph insertion order.
func (n *Node) ID() int { return n.id }

// Name returns the unique node name.
func (n *Node) Name() string { return n.name }

// Op returns the operation type name (e.g. "MatMul").
func (n *Node) Op() string { return n.op }

// Inputs returns the data-dependency producers of this node.
func (n *Node) Inputs() []*Node { return n.inputs }

// ControlDeps returns the control-dependency predecessors.
func (n *Node) ControlDeps() []*Node { return n.controls }

// Device returns the node's (possibly partial) placement constraint.
func (n *Node) Device() DeviceSpec { return n.device }

// SetDevice overrides the node's placement.
func (n *Node) SetDevice(d DeviceSpec) { n.device = d }

// Attrs returns the node's attribute map (never nil).
func (n *Node) Attrs() Attrs { return n.attrs }

// Attr returns one attribute value, or nil.
func (n *Node) Attr(key string) any { return n.attrs[key] }

// AddControlDep records that n must run after dep in every execution.
func (n *Node) AddControlDep(dep *Node) { n.controls = append(n.controls, dep) }

// Graph is a container of nodes. Not safe for concurrent mutation; build
// fully, then share read-only with any number of sessions.
type Graph struct {
	nodes    []*Node
	byName   map[string]*Node
	deviceSt []DeviceSpec // WithDevice scope stack
	nameSeq  map[string]int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]*Node), nameSeq: make(map[string]int)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Nodes returns all nodes in insertion order. Callers must not mutate.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Lookup finds a node by name, or nil.
func (g *Graph) Lookup(name string) *Node { return g.byName[name] }

// uniqueName derives an unused node name from an op type or explicit base.
func (g *Graph) uniqueName(base string) string {
	if _, taken := g.byName[base]; !taken && g.nameSeq[base] == 0 {
		g.nameSeq[base] = 1
		return base
	}
	for {
		g.nameSeq[base]++
		cand := fmt.Sprintf("%s_%d", base, g.nameSeq[base]-1)
		if _, taken := g.byName[cand]; !taken {
			return cand
		}
	}
}

// currentDevice returns the innermost WithDevice scope, or unconstrained.
func (g *Graph) currentDevice() DeviceSpec {
	if len(g.deviceSt) == 0 {
		return UnconstrainedDevice()
	}
	return g.deviceSt[len(g.deviceSt)-1]
}

// WithDevice runs body with the given device string as the default placement
// for every node added inside, composing with any enclosing scope (inner
// constraints win per field). Mirrors tf.device() from Listing 1.
func (g *Graph) WithDevice(device string, body func()) {
	spec := MustParseDevice(device)
	spec = spec.Merge(g.currentDevice())
	g.deviceSt = append(g.deviceSt, spec)
	defer func() { g.deviceSt = g.deviceSt[:len(g.deviceSt)-1] }()
	body()
}

// AddOp appends a node with an auto-generated name.
func (g *Graph) AddOp(op string, attrs Attrs, inputs ...*Node) *Node {
	return g.AddNamedOp(g.uniqueName(op), op, attrs, inputs...)
}

// AddNamedOp appends a node with an explicit unique name.
func (g *Graph) AddNamedOp(name, op string, attrs Attrs, inputs ...*Node) *Node {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node name %q", name))
	}
	if attrs == nil {
		attrs = Attrs{}
	}
	for _, in := range inputs {
		if in == nil {
			panic(fmt.Sprintf("graph: nil input to %q", name))
		}
	}
	n := &Node{
		id:     len(g.nodes),
		name:   name,
		op:     op,
		inputs: inputs,
		device: g.currentDevice(),
		attrs:  attrs,
	}
	g.nodes = append(g.nodes, n)
	g.byName[name] = n
	return n
}

// Const adds a constant node holding the given tensor.
func (g *Graph) Const(t *tensor.Tensor) *Node {
	return g.AddOp("Const", Attrs{"value": t})
}

// Placeholder adds a feed point of the given dtype/shape.
func (g *Graph) Placeholder(name string, dt tensor.DType, shape tensor.Shape) *Node {
	return g.AddNamedOp(name, "Placeholder", Attrs{"dtype": dt, "shape": shape})
}

// DonatedPlaceholder adds a feed point whose fed tensors the caller gives
// away: an Assign that is a fed value's one keeper stores that tensor
// itself instead of a copy, so the caller must not change a tensor it fed
// here. Any other feed is copied where the graph keeps it.
func (g *Graph) DonatedPlaceholder(name string, dt tensor.DType, shape tensor.Shape) *Node {
	return g.AddNamedOp(name, "Placeholder", Attrs{"dtype": dt, "shape": shape, "donated": true})
}

// TopoSort returns the nodes in a dependency-respecting order (data and
// control edges), or an error naming a cycle participant.
func (g *Graph) TopoSort() ([]*Node, error) {
	indeg := make([]int, len(g.nodes))
	succs := make([][]int, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.inputs {
			succs[in.id] = append(succs[in.id], n.id)
			indeg[n.id]++
		}
		for _, c := range n.controls {
			succs[c.id] = append(succs[c.id], n.id)
			indeg[n.id]++
		}
	}
	// Deterministic order: ready set kept sorted by id.
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	out := make([]*Node, 0, len(g.nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, g.nodes[id])
		for _, s := range succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		sort.Ints(ready)
	}
	if len(out) != len(g.nodes) {
		for _, n := range g.nodes {
			if indeg[n.id] > 0 {
				return nil, fmt.Errorf("graph: cycle involving node %q", n.name)
			}
		}
	}
	return out, nil
}

// Subgraph returns the set of node ids needed to evaluate the given targets
// (reverse reachability over data and control edges).
func (g *Graph) Subgraph(targets []*Node) map[int]bool {
	needed := make(map[int]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if needed[n.id] {
			return
		}
		needed[n.id] = true
		for _, in := range n.inputs {
			visit(in)
		}
		for _, c := range n.controls {
			visit(c)
		}
	}
	for _, t := range targets {
		visit(t)
	}
	return needed
}

// Validate checks structural invariants: unique names, acyclicity, inputs
// belonging to this graph.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		for _, in := range n.inputs {
			if g.byName[in.name] != in {
				return fmt.Errorf("graph: node %q has input %q from another graph", n.name, in.name)
			}
		}
	}
	_, err := g.TopoSort()
	return err
}
