// Package session executes dataflow graphs: the tf.Session analogue. A
// session binds a graph to a set of local resources (variables, queues) and
// runs fetch/feed requests through a parallel topological executor that
// dispatches independent ops concurrently — the property the paper
// highlights as a core advantage of dataflow computing.
//
// Every Run takes one path. The first Run of each (feeds, fetches, targets)
// signature prunes the graph at its feeds — a fed node's producers do not
// run — splits what remains by task, turns every edge that crosses a
// partition boundary into a _Send/_Recv pair, compiles this process's
// partition and registers each remote one once on its task (partition.go,
// host.go). That first Run pays for the plan; every later Run of the
// signature reuses it, runs the compiled local partition and sends one
// small run message per task over one stream per (session, task), receiving
// only the tensors that leave a partition — the TensorFlow white paper's
// per-device partitioning with cached, register-then-run subgraphs. A graph
// that runs wholly here is a plan with one partition and no tasks, so the
// same code drives single-process and distributed executions.
package session

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/queue"
	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
	"tfhpc/internal/vars"
)

// Resources is the stateful backing of one task: its variables, queues and
// collective-group memberships.
type Resources struct {
	Vars   *vars.Store
	Queues *queue.Registry
	Colls  *CollStore
}

// NewResources allocates empty stores.
func NewResources() *Resources {
	return &Resources{Vars: vars.NewStore(), Queues: queue.NewRegistry(), Colls: NewCollStore()}
}

// Variable implements ops.Resources.
func (r *Resources) Variable(name string) (ops.VariableHandle, error) {
	return r.Vars.Get(name), nil
}

// Queue implements ops.Resources.
func (r *Resources) Queue(name string, capacity int) (ops.QueueHandle, error) {
	return r.Queues.Get(name, capacity), nil
}

// Collective implements ops.Resources.
func (r *Resources) Collective(name string) (ops.CollectiveHandle, error) {
	return r.Colls.Get(name)
}

// CollStore is the task's registry of collective-group memberships. Unlike
// variables and queues, groups are not created on first use: membership
// needs a transport endpoint (rank, peers), so the runtime — cluster servers
// on CollInit, in-process apps directly — registers handles explicitly.
type CollStore struct {
	mu sync.Mutex
	m  map[string]ops.CollectiveHandle
}

// NewCollStore returns an empty registry.
func NewCollStore() *CollStore {
	return &CollStore{m: make(map[string]ops.CollectiveHandle)}
}

// Register installs (or replaces) the named group membership. A replaced
// handle is closed if it implements io.Closer.
func (s *CollStore) Register(name string, h ops.CollectiveHandle) {
	s.mu.Lock()
	old := s.m[name]
	s.m[name] = h
	s.mu.Unlock()
	if c, ok := old.(io.Closer); ok && old != nil {
		c.Close()
	}
}

// Get resolves a registered group membership.
func (s *CollStore) Get(name string) (ops.CollectiveHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("session: no collective group %q registered on this task", name)
	}
	return h, nil
}

// Close removes and closes one registered membership (no-op if absent) —
// the remote-abort path: poisoning a group's transport errors out any rank
// blocked inside one of its collectives.
func (s *CollStore) Close(name string) {
	s.mu.Lock()
	h := s.m[name]
	delete(s.m, name)
	s.mu.Unlock()
	if c, ok := h.(io.Closer); ok && h != nil {
		c.Close()
	}
}

// CloseAll closes every registered handle that implements io.Closer and
// empties the store — used at server teardown so ranks blocked inside a
// collective fail fast instead of stalling shutdown.
func (s *CollStore) CloseAll() {
	s.mu.Lock()
	m := s.m
	s.m = make(map[string]ops.CollectiveHandle)
	s.mu.Unlock()
	for _, h := range m {
		if c, ok := h.(io.Closer); ok {
			c.Close()
		}
	}
}

// Dialer opens the stream a session registers and runs one task's
// partitions over. The task serves it with a Host; internal/cluster's Peers
// implements Dialer over each task server's rpc connection.
type Dialer interface {
	DialTask(job string, task int) (*rpc.Stream, error)
}

// Options configures a session.
type Options struct {
	// LocalJob/LocalTask identify this process within a cluster; ops whose
	// device spec names another job/task run in that task's partition. An
	// empty LocalJob treats every op as local.
	LocalJob  string
	LocalTask int
	// Remote reaches the tasks; required only in distributed runs.
	Remote Dialer
}

// Session executes a fixed graph repeatedly. Run is safe for concurrent
// use.
type Session struct {
	g    *graph.Graph
	res  *Resources
	opts Options

	mu         sync.Mutex
	plans      map[string]*plan // by Run signature
	conns      map[taskKey]*taskConn
	nextHandle uint64
	nextRun    uint64
	closed     bool
}

// New validates the graph and binds it to resources. A nil res allocates
// fresh local stores.
func New(g *graph.Graph, res *Resources, opts Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if res == nil {
		res = NewResources()
	}
	return &Session{g: g, res: res, opts: opts}, nil
}

// Close releases the session's task streams and waits for their readers
// in this process to exit. It does not wait for the tasks: a task drops
// the partitions registered over a stream, aborting any still running,
// once it sees that stream end, which may be after Close returns. Runs
// that need a task fail after Close; all-local Runs are unaffected.
func (s *Session) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.st.Close()
	}
	for _, c := range conns {
		<-c.done
	}
	return nil
}

// Resources exposes the session's stateful backing (for checkpointing).
func (s *Session) Resources() *Resources { return s.res }

// Graph returns the bound graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Run evaluates the named fetches (returned in order) after executing the
// named targets (run for effect only), with feeds overriding node outputs.
// It is the equivalent of sess.run(fetches, feed_dict) — including the
// paper's STREAM trick of passing an op as a target with no fetches so that
// no tensor value is returned to the client.
func (s *Session) Run(feeds map[string]*tensor.Tensor, fetches, targets []string) ([]*tensor.Tensor, error) {
	return s.RunContext(context.Background(), feeds, fetches, targets)
}

// RunContext is Run under the span ctx carries. With tracing on
// (telemetry.Enable) the Run records a session_run span, parented to that
// span or a root when ctx carries none, with one child per node it
// evaluates here — named after the node, with args op and device, on one
// lane per device — and one per partition it runs on a task. ctx does not
// bound the Run.
func (s *Session) RunContext(ctx context.Context, feeds map[string]*tensor.Tensor, fetches, targets []string) ([]*tensor.Tensor, error) {
	if len(fetches)+len(targets) == 0 {
		return nil, fmt.Errorf("session: Run needs at least one fetch or target")
	}
	var trace *runTrace
	if span := telemetry.StartChild(telemetry.SpanFromContext(ctx).Context(), "session_run"); span != nil {
		trace = &runTrace{span: span, lanes: make(map[string]uint32)}
		defer span.End()
	}
	p, err := s.plan(feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	return s.runPlan(p, feeds, trace)
}

// runTrace is a traced Run: its span, and the lane of each device its
// nodes and partitions ran on.
type runTrace struct {
	span  *telemetry.Span
	mu    sync.Mutex
	lanes map[string]uint32
}

// child starts a span under the Run's, on device's lane.
func (t *runTrace) child(name, op, device string) *telemetry.Span {
	t.mu.Lock()
	l, ok := t.lanes[device]
	if !ok {
		l = telemetry.NewLane(device)
		t.lanes[device] = l
	}
	t.mu.Unlock()
	return t.span.Child(name).OnLane(l).Arg("op", op).Arg("device", device)
}

// program is a partition graph compiled once for all its Runs. A node's
// index is its graph id.
type program struct {
	nodes   []*graph.Node
	pending []int32   // per node: the inputs and control deps it waits for
	ready   []int32   // the nodes that wait for nothing
	succs   [][]int32 // per node: the nodes it counts down when it finishes
	// Node i's inputs are argument slots argOff[i] to argOff[i+1]: args
	// holds each slot's producing node, names that node's name.
	argOff []int
	args   []int32
	names  []string
	// owned: the node's value belongs to the Run. adopt: the node is an
	// Assign whose input dies at it.
	owned []bool
	adopt []bool
}

// compile checks a partition graph's edge nodes and compiles it.
func compile(g *graph.Graph) (*program, error) {
	nodes := g.Nodes()
	p := &program{
		nodes:   nodes,
		pending: make([]int32, len(nodes)),
		succs:   make([][]int32, len(nodes)),
		argOff:  make([]int, 1, len(nodes)+1),
		owned:   make([]bool, len(nodes)),
		adopt:   make([]bool, len(nodes)),
	}
	fresh := make([]bool, len(nodes))
	// keeps counts, per value, the argument slots that read it into an op
	// without FreshOutput: one that may store, pass on, send or change it.
	keeps := make([]int32, len(nodes))
	for i, n := range nodes {
		def, err := ops.Lookup(n.Op())
		// A donated feed is the Run's to keep, like an op's fresh output.
		donated, _ := n.Attr(attrDonated).(bool)
		fresh[i] = err == nil && def.FreshOutput || n.Op() == opRecv && donated
		// A value is the Run's own when no variable, constant or queue
		// holds it: an op made it fresh, it was fed or arrived over an
		// edge, or an op that stores nothing made it from owned values.
		// Node ids are topological (a node's inputs exist before it), so
		// every input's facts are known here.
		p.owned[i] = fresh[i] || n.Op() == opRecv ||
			len(n.Inputs()) > 0 && n.Op() != opAssign && n.Op() != opAssignAdd
		if n.Op() == opSend || n.Op() == opRecv {
			if k, ok := n.Attr("key").(int); !ok || k < 0 {
				return nil, fmt.Errorf("session: %s node %q has no edge key", n.Op(), n.Name())
			}
			if n.Op() == opSend && len(n.Inputs()) != 1 {
				return nil, fmt.Errorf("session: _Send node %q needs one input", n.Name())
			}
		}
		for _, in := range n.Inputs() {
			p.args = append(p.args, int32(in.ID()))
			p.names = append(p.names, in.Name())
			p.succs[in.ID()] = append(p.succs[in.ID()], int32(i))
			if !fresh[i] {
				keeps[in.ID()]++
				p.owned[i] = p.owned[i] && p.owned[in.ID()]
			}
		}
		for _, c := range n.ControlDeps() {
			p.succs[c.ID()] = append(p.succs[c.ID()], int32(i))
		}
		p.argOff = append(p.argOff, len(p.args))
		if p.pending[i] = int32(len(n.Inputs()) + len(n.ControlDeps())); p.pending[i] == 0 {
			p.ready = append(p.ready, int32(i))
		}
	}
	// An Assign adopts its input when the value dies at it: its producer
	// made it fresh and the Assign is the one consumer that may keep it.
	// A fetched or sent value has a _Send consumer, so it is never adopted.
	for i, n := range nodes {
		if n.Op() == opAssign && len(n.Inputs()) == 1 {
			src := n.Inputs()[0].ID()
			p.adopt[i] = fresh[src] && keeps[src] == 1
		}
	}
	return p, nil
}

// execution is one Run of a program by the parallel topological executor.
type execution struct {
	p       *program
	res     *Resources
	trace   *runTrace // nil when the Run is not traced
	scratch *ops.Scratch
	// rv holds the values arriving over partition edges for _Recv nodes,
	// and send ships a _Send node's value out.
	rv   *rendezvous
	send func(key uint64, t *tensor.Tensor) error
	wg   sync.WaitGroup
	ctxs []ops.Context    // per node, written by the goroutine running it
	args []*tensor.Tensor // argument slots, each filled as its node starts

	mu      sync.Mutex
	pending []int32
	values  []*tensor.Tensor // per node, once it has run
	err     error
}

// run executes every node of the program once against res.
func (p *program) run(res *Resources, trace *runTrace, rv *rendezvous, send func(uint64, *tensor.Tensor) error) error {
	e := &execution{
		p:       p,
		res:     res,
		trace:   trace,
		scratch: ops.NewScratch(),
		rv:      rv,
		send:    send,
		ctxs:    make([]ops.Context, len(p.nodes)),
		args:    make([]*tensor.Tensor, len(p.args)),
		pending: slices.Clone(p.pending),
		values:  make([]*tensor.Tensor, len(p.nodes)),
	}
	// Work-first dispatch: the goroutine that finishes a node goes on to
	// run the first successor that node made ready, and starts a goroutine
	// for each further one. Every ready node still starts at once, so
	// independent blocking nodes (collectives, _Recv) run concurrently, but
	// a chain of nodes costs no goroutine per node. The caller runs the
	// first ready node itself, after the rest have started.
	if len(p.ready) > 0 {
		for _, i := range p.ready[1:] {
			e.spawn(i)
		}
		e.chain(p.ready[0])
	}
	e.wg.Wait()
	return e.err
}

func (e *execution) spawn(i int32) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.chain(i)
	}()
}

// chain runs node i, then the first successor each node made ready.
func (e *execution) chain(i int32) {
	for i >= 0 {
		out, ok := e.eval(i)
		if !ok {
			return
		}
		next := int32(-1)
		e.mu.Lock()
		e.values[i] = out
		for _, s := range e.p.succs[i] {
			if e.pending[s]--; e.pending[s] > 0 {
				continue
			}
			if next < 0 {
				next = s
			} else {
				e.spawn(s)
			}
		}
		e.mu.Unlock()
		i = next
	}
}

// eval runs node i; false means the Run has failed.
func (e *execution) eval(i int32) (*tensor.Tensor, bool) {
	lo, hi := e.p.argOff[i], e.p.argOff[i+1]
	in := e.args[lo:hi:hi]
	e.mu.Lock()
	failed := e.err != nil
	for j, src := range e.p.args[lo:hi] {
		in[j] = e.values[src]
	}
	e.mu.Unlock()
	if failed {
		return nil, false
	}
	out, err := e.evalNode(i, in)
	if err != nil {
		e.mu.Lock()
		if e.err == nil {
			e.err = err
		}
		e.mu.Unlock()
		return nil, false
	}
	return out, true
}

// evalNode runs node i on its inputs.
func (e *execution) evalNode(i int32, in []*tensor.Tensor) (*tensor.Tensor, error) {
	n := e.p.nodes[i]
	switch n.Op() {
	case opRecv:
		return e.rv.get(edgeKey(n))
	case opSend:
		return nil, e.sendValue(n, in[0])
	}

	var span *telemetry.Span
	if e.trace != nil {
		dev := n.Device().String()
		if dev == "" {
			dev = "/device:CPU:0"
		}
		span = e.trace.child(n.Name(), n.Op(), dev)
	}
	lo, hi := e.p.argOff[i], e.p.argOff[i+1]
	ctx := &e.ctxs[i]
	*ctx = ops.Context{
		NodeName:   n.Name(),
		Attrs:      n.Attrs(),
		InputNames: e.p.names[lo:hi:hi],
		Resources:  e.res,
		Scratch:    e.scratch,
		AdoptInput: e.p.adopt[i],
	}
	out, err := ops.Run(n.Op(), ctx, in)
	span.End()
	return out, err
}
