// Package session executes dataflow graphs: the tf.Session analogue. A
// session binds a graph to a set of local resources (variables, queues) and
// runs fetch/feed requests through a parallel topological executor that
// dispatches independent ops concurrently — the property the paper
// highlights as a core advantage of dataflow computing.
//
// A graph whose nodes all run here takes that executor directly. When some
// nodes are placed on other tasks, the first Run of each (feeds, fetches,
// targets) signature splits the needed subgraph by task, turns every edge
// that crosses a partition boundary into a _Send/_Recv pair, and registers
// each remote partition once on its task (partition.go, host.go). Later
// Runs of that signature send one small run message per task over one
// stream per (session, task) and receive only the tensors that leave the
// partition — the TensorFlow white paper's per-device partitioning with
// cached, register-then-run subgraphs — so the same session code drives
// single-process and distributed executions.
package session

import (
	"fmt"
	"io"
	"sync"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/queue"
	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
	"tfhpc/internal/timeline"
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
	// Trace, when non-nil, records per-op spans (TensorFlow Timeline) for
	// the ops run here, and one span per remote partition run.
	Trace *timeline.Trace
	// Parallelism bounds concurrent op dispatch; 0 = unlimited (the executor
	// is already throttled by dependencies; kernels self-limit to NumCPU).
	//
	// Caution: collective kernels (AllReduce, AllReduceFused, ...) block
	// inside the executor until peer ranks issue the matching call, and the
	// executor seeds ready nodes in nondeterministic order — so a graph
	// with K independent collective nodes needs Parallelism 0 or >= K on
	// every rank, or two ranks can each fill all their slots with
	// collectives the other has not dispatched yet and deadlock. Leave it 0
	// for graphs that use collectives (the default everywhere in this
	// repo).
	Parallelism int
}

// Session executes a fixed graph repeatedly. Run is safe for concurrent
// use.
type Session struct {
	g    *graph.Graph
	res  *Resources
	opts Options
	// remote: some node is placed off this process, so Runs go through
	// partition plans; false keeps every Run on the plain executor.
	remote bool

	mu         sync.Mutex
	plans      map[string]*plan // by Run signature; nil plan = all local
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
	s := &Session{g: g, res: res, opts: opts}
	if opts.LocalJob != "" {
		for _, n := range g.Nodes() {
			if !n.Device().IsLocalTo(opts.LocalJob, opts.LocalTask) {
				s.remote = true
				break
			}
		}
	}
	return s, nil
}

// Close releases the session's task streams and waits for their readers
// to exit; each task drops the partitions registered over its stream,
// aborting any still running. Runs that need a task fail after Close;
// all-local Runs are unaffected.
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
	var roots []*graph.Node
	resolve := func(name string) (*graph.Node, error) {
		n := s.g.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("session: no node named %q", name)
		}
		return n, nil
	}
	fetchNodes := make([]*graph.Node, len(fetches))
	for i, f := range fetches {
		n, err := resolve(f)
		if err != nil {
			return nil, err
		}
		fetchNodes[i] = n
		roots = append(roots, n)
	}
	for _, t := range targets {
		n, err := resolve(t)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("session: Run needs at least one fetch or target")
	}
	for name := range feeds {
		if _, err := resolve(name); err != nil {
			return nil, err
		}
	}
	if s.remote {
		p, err := s.plan(feeds, fetchNodes, targets, roots)
		if err != nil {
			return nil, err
		}
		if p != nil {
			return s.runPlan(p, feeds)
		}
	}

	exec := &execution{
		g:       s.g,
		res:     s.res,
		opts:    &s.opts,
		needed:  s.g.Subgraph(roots),
		feeds:   feeds,
		results: make(map[int]*tensor.Tensor),
		scratch: ops.NewScratch(),
	}
	if err := exec.run(); err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(fetchNodes))
	for i, n := range fetchNodes {
		v, ok := exec.results[n.ID()]
		if !ok || v == nil {
			return nil, fmt.Errorf("session: fetch %q produced no value", n.Name())
		}
		out[i] = v
	}
	return out, nil
}

// execution is the per-Run state of the parallel topological executor: the
// whole Run of an all-local graph, or one partition of a partitioned Run.
type execution struct {
	g       *graph.Graph
	res     *Resources
	opts    *Options
	needed  map[int]bool
	feeds   map[string]*tensor.Tensor
	scratch *ops.Scratch
	// Partition runs only: rv holds the values arriving over partition
	// edges for _Recv nodes, and send ships a _Send node's value out.
	rv   *rendezvous
	send func(key uint64, t *tensor.Tensor) error

	mu      sync.Mutex
	results map[int]*tensor.Tensor
	err     error
}

func (e *execution) setErr(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *execution) run() error {
	g := e.g
	// Build dependency counts restricted to the needed subgraph.
	indeg := make(map[int]int, len(e.needed))
	succs := make(map[int][]*graph.Node, len(e.needed))
	var nodes []*graph.Node
	for id := range e.needed {
		nodes = append(nodes, g.Nodes()[id])
	}
	for _, n := range nodes {
		if _, fed := e.feeds[n.Name()]; fed {
			continue // fed nodes have no dependencies
		}
		deps := 0
		for _, in := range n.Inputs() {
			if e.needed[in.ID()] {
				deps++
				succs[in.ID()] = append(succs[in.ID()], n)
			}
		}
		for _, c := range n.ControlDeps() {
			if e.needed[c.ID()] {
				deps++
				succs[c.ID()] = append(succs[c.ID()], n)
			}
		}
		indeg[n.ID()] = deps
	}

	// Work-first dispatch: the goroutine that finishes a node goes on to
	// run the first successor that node made ready, and starts a goroutine
	// for each further one. Every ready node still starts at once, so
	// independent blocking nodes (collectives, _Recv) run concurrently, but
	// a chain of nodes costs no goroutine per node.
	var wg sync.WaitGroup
	var sem chan struct{}
	if p := e.opts.Parallelism; p > 0 {
		sem = make(chan struct{}, p)
	}
	// eval runs n under a dispatch slot; false means the Run has failed.
	eval := func(n *graph.Node) (*tensor.Tensor, bool) {
		// A _Recv only waits for a value; holding a dispatch slot while it
		// waits could starve the nodes that produce that value.
		if sem != nil && n.Op() != opRecv {
			sem <- struct{}{}
			defer func() { <-sem }()
		}
		e.mu.Lock()
		failed := e.err != nil
		e.mu.Unlock()
		if failed {
			return nil, false
		}
		out, err := e.evalNode(n)
		if err != nil {
			e.setErr(err)
			return nil, false
		}
		return out, true
	}
	var spawn func(n *graph.Node)
	// chain runs n, then the first successor each node made ready.
	chain := func(n *graph.Node) {
		for n != nil {
			out, ok := eval(n)
			if !ok {
				return
			}
			var next *graph.Node
			e.mu.Lock()
			e.results[n.ID()] = out
			for _, s := range succs[n.ID()] {
				indeg[s.ID()]--
				if indeg[s.ID()] == 0 {
					if next == nil {
						next = s
					} else {
						spawn(s)
					}
				}
			}
			e.mu.Unlock()
			n = next
		}
	}
	spawn = func(n *graph.Node) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain(n)
		}()
	}

	// Seed: fed nodes resolve immediately; then roots with no remaining deps.
	e.mu.Lock()
	var seeds []*graph.Node
	for _, n := range nodes {
		if v, fed := e.feeds[n.Name()]; fed {
			e.results[n.ID()] = v
			for _, s := range succs[n.ID()] {
				indeg[s.ID()]--
			}
		}
	}
	for _, n := range nodes {
		if _, fed := e.feeds[n.Name()]; fed {
			continue
		}
		if indeg[n.ID()] == 0 {
			seeds = append(seeds, n)
		}
	}
	e.mu.Unlock()
	// The caller runs the first seed itself, after the rest have started.
	if len(seeds) > 0 {
		for _, n := range seeds[1:] {
			spawn(n)
		}
		chain(seeds[0])
	}
	wg.Wait()
	return e.err
}

// evalNode runs one node.
func (e *execution) evalNode(n *graph.Node) (*tensor.Tensor, error) {
	inputs := make([]*tensor.Tensor, len(n.Inputs()))
	inputNames := make([]string, len(n.Inputs()))
	e.mu.Lock()
	for i, in := range n.Inputs() {
		inputs[i] = e.results[in.ID()]
		inputNames[i] = in.Name()
	}
	e.mu.Unlock()

	if e.rv != nil {
		switch n.Op() {
		case opRecv:
			return e.rv.get(edgeKey(n))
		case opSend:
			return nil, e.sendValue(n, inputs[0])
		}
	}

	opts := e.opts
	var start float64
	if opts.Trace != nil {
		start = opts.Trace.Now()
	}
	ctx := &ops.Context{
		NodeName:   n.Name(),
		Attrs:      n.Attrs(),
		InputNames: inputNames,
		Resources:  e.res,
		Scratch:    e.scratch,
	}
	out, err := ops.Run(n.Op(), ctx, inputs)
	if opts.Trace != nil {
		devStr := n.Device().String()
		if devStr == "" {
			devStr = "/device:CPU:0"
		}
		opts.Trace.AddSpan(n.Name(), n.Op(), devStr, start, opts.Trace.Now())
	}
	return out, err
}
