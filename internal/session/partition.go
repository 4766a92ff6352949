package session

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// The edge nodes partitioning inserts. Each carries an int "key" attr, the
// plan-wide id of the edge; a _Send with "control" set ships a marker in
// place of its input's value, for edges that only order.
const (
	opSend = "_Send"
	opRecv = "_Recv"
)

// The ops that store a value in a variable and yield the stored tensor.
const (
	opAssign    = "Assign"
	opAssignAdd = "AssignAdd"
)

// attrDonated marks a graph.DonatedPlaceholder, and the _Recv that brings
// its feed into a partition.
const attrDonated = "donated"

// controlMarker is what a control-only _Send ships.
var controlMarker = tensor.New(tensor.Bool)

// edgeKey reads a _Send/_Recv node's edge key.
func edgeKey(n *graph.Node) uint64 {
	k, _ := n.Attr("key").(int)
	return uint64(k)
}

// sendValue ships a _Send node's value out of its partition.
func (e *execution) sendValue(n *graph.Node, v *tensor.Tensor) error {
	if ctl, _ := n.Attr("control").(bool); ctl {
		v = controlMarker
	} else if v == nil {
		return fmt.Errorf("session: node %q produced no value to send", n.Inputs()[0].Name())
	}
	return e.send(edgeKey(n), v)
}

// taskKey names one task; a partition per task, a stream per task.
type taskKey struct {
	job  string
	task int
}

// plan is the compiled form of one Run signature, built by its first Run
// and reused by every later one.
type plan struct {
	// local is this process's partition: the nodes that run here plus
	// their edge nodes. It may be empty, and parts may be too.
	local *program
	parts []*remotePart
	// Every value that leaves its partition, is fed, or is fetched has a
	// key; values held here (feeds, arrivals, local sends) sit in the Run's
	// rendezvous under it.
	feedKeys  map[string]uint64
	fetchKeys []uint64
	// fetchCopy marks the fetches the Run does not own (a variable's or a
	// constant's tensor, say), which Run copies before returning them.
	fetchCopy []bool
	consumers map[uint64][]int // key → the parts that _Recv it
}

// remotePart is one task's partition of a plan.
type remotePart struct {
	task     taskKey
	device   string // "/job:ps/task:0"
	name     string // its span name
	handle   uint64
	graphDef []byte
	feeds    []uint64 // keys of the feeds it consumes, shipped in its run frame
}

// plan returns the cached plan of a Run signature, building it on first
// use.
func (s *Session) plan(feeds map[string]*tensor.Tensor, fetches, targets []string) (*plan, error) {
	sig := signature(feeds, fetches, targets)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.plans[sig]; ok {
		return p, nil
	}
	p, err := s.buildPlan(feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	if s.plans == nil {
		s.plans = make(map[string]*plan)
	}
	s.plans[sig] = p
	return p, nil
}

// signature keys a Run by its fetch and target lists and its feed names.
func signature(feeds map[string]*tensor.Tensor, fetches, targets []string) string {
	var b strings.Builder
	b.Grow(64)
	put := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	for _, f := range fetches {
		put(f)
	}
	b.WriteByte('|')
	for _, t := range targets {
		put(t)
	}
	b.WriteByte('|')
	names := make([]string, 0, len(feeds))
	for name := range feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put(name)
	}
	return b.String()
}

// partBuilder accumulates one partition's graph.
type partBuilder struct {
	g      *graph.Graph
	copies map[int]*graph.Node // original node id → its node here (copy or _Recv)
}

// buildPlan splits the subgraph a Run needs by task. Called with s.mu held.
func (s *Session) buildPlan(feeds map[string]*tensor.Tensor, fetches, targets []string) (*plan, error) {
	lookup := func(name string) (*graph.Node, error) {
		n := s.g.Lookup(name)
		if n == nil {
			return nil, fmt.Errorf("session: no node named %q", name)
		}
		return n, nil
	}
	// roots are the fetches, then the targets.
	roots := make([]*graph.Node, 0, len(fetches)+len(targets))
	for _, name := range slices.Concat(fetches, targets) {
		n, err := lookup(name)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	for name := range feeds {
		if _, err := lookup(name); err != nil {
			return nil, err
		}
	}
	fed := func(n *graph.Node) bool { _, ok := feeds[n.Name()]; return ok }
	// The needed subgraph, pruned at feeds: a fed node's producers do not
	// run.
	needed := make(map[int]bool)
	var visit func(n *graph.Node)
	visit = func(n *graph.Node) {
		if needed[n.ID()] {
			return
		}
		needed[n.ID()] = true
		if fed(n) {
			return
		}
		for _, in := range n.Inputs() {
			visit(in)
		}
		for _, c := range n.ControlDeps() {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	order, err := s.g.TopoSort()
	if err != nil {
		return nil, err
	}

	// Placement: where[id] indexes p.parts, or is here for this process
	// (fed values count as here: they start here). An empty LocalJob keeps
	// every node here.
	const here = -1
	p := &plan{feedKeys: make(map[string]uint64), consumers: make(map[uint64][]int)}
	where := make(map[int]int, len(needed))
	byTask := make(map[taskKey]int)
	for _, n := range order {
		if !needed[n.ID()] {
			continue
		}
		dev := n.Device()
		if fed(n) || s.opts.LocalJob == "" || dev.IsLocalTo(s.opts.LocalJob, s.opts.LocalTask) {
			where[n.ID()] = here
			continue
		}
		if s.opts.Remote == nil {
			return nil, fmt.Errorf("session: node %q placed on %v but no remote runner configured", n.Name(), dev)
		}
		tk := taskKey{dev.Job, max(dev.Task, 0)}
		i, ok := byTask[tk]
		if !ok {
			i = len(p.parts)
			byTask[tk] = i
			s.nextHandle++
			p.parts = append(p.parts, &remotePart{
				task:   tk,
				device: graph.DeviceSpec{Job: tk.job, Task: tk.task, DeviceIndex: -1}.String(),
				name:   "partition" + strconv.FormatUint(s.nextHandle, 10),
				handle: s.nextHandle,
			})
		}
		where[n.ID()] = i
	}

	// One key per value source; data unless it only ever orders.
	keys := make(map[int]uint64)
	data := make(map[int]bool)
	keyOf := func(src *graph.Node, isData bool) uint64 {
		k, ok := keys[src.ID()]
		if !ok {
			k = uint64(len(keys))
			keys[src.ID()] = k
		}
		if isData {
			data[src.ID()] = true
		}
		return k
	}
	pbs := make([]*partBuilder, len(p.parts)+1) // pbs[0] is here
	for i := range pbs {
		pbs[i] = &partBuilder{g: graph.New(), copies: make(map[int]*graph.Node)}
	}
	// recv returns src's node in partition at, a _Recv the first time.
	recv := func(at int, src *graph.Node, isData bool) *graph.Node {
		b := pbs[at+1]
		k := keyOf(src, isData)
		if n := b.copies[src.ID()]; n != nil {
			return n
		}
		attrs := graph.Attrs{"key": int(k)}
		if donated, _ := src.Attr(attrDonated).(bool); donated && fed(src) {
			attrs[attrDonated] = true
		}
		n := b.g.AddNamedOp(src.Name(), opRecv, attrs)
		b.copies[src.ID()] = n
		if at != here {
			p.consumers[k] = append(p.consumers[k], at)
			if fed(src) {
				p.parts[at].feeds = append(p.parts[at].feeds, k)
			}
		}
		return n
	}
	for _, n := range order {
		if !needed[n.ID()] || fed(n) {
			continue
		}
		at := where[n.ID()]
		b := pbs[at+1]
		ins := make([]*graph.Node, len(n.Inputs()))
		for j, in := range n.Inputs() {
			if !fed(in) && where[in.ID()] == at {
				ins[j] = b.copies[in.ID()]
			} else {
				ins[j] = recv(at, in, true)
			}
		}
		c := b.g.AddNamedOp(n.Name(), n.Op(), n.Attrs(), ins...)
		c.SetDevice(n.Device())
		b.copies[n.ID()] = c
		for _, dep := range n.ControlDeps() {
			switch {
			case fed(dep): // a fed value is there before the Run starts
			case where[dep.ID()] == at:
				c.AddControlDep(b.copies[dep.ID()])
			default:
				c.AddControlDep(recv(at, dep, false))
			}
		}
	}
	p.fetchKeys = make([]uint64, len(fetches))
	for i, f := range roots[:len(fetches)] {
		p.fetchKeys[i] = keyOf(f, true)
	}
	// A _Send beside every keyed source that runs somewhere.
	for _, n := range order {
		k, ok := keys[n.ID()]
		if !ok {
			continue
		}
		if fed(n) {
			p.feedKeys[n.Name()] = k
			continue
		}
		b := pbs[where[n.ID()]+1]
		name := "_send/" + n.Name()
		for b.g.Lookup(name) != nil {
			name = "_" + name
		}
		attrs := graph.Attrs{"key": int(k)}
		if !data[n.ID()] {
			attrs["control"] = true
		}
		b.g.AddNamedOp(name, opSend, attrs, b.copies[n.ID()])
	}
	for i, part := range p.parts {
		if part.graphDef, err = graph.MarshalGraph(pbs[i+1].g); err != nil {
			return nil, err
		}
	}
	if p.local, err = compile(pbs[0].g); err != nil {
		return nil, err
	}
	// A fetch produced elsewhere arrives decoded, and a fed one is the
	// caller's own.
	p.fetchCopy = make([]bool, len(fetches))
	for i, f := range roots[:len(fetches)] {
		if !fed(f) && where[f.ID()] == here {
			p.fetchCopy[i] = !p.local.owned[pbs[0].copies[f.ID()].ID()]
		}
	}
	return p, nil
}

// runPlan executes one Run of a plan: a run frame to every part, the local
// partition here, then the fetched values out of the rendezvous.
func (s *Session) runPlan(p *plan, feeds map[string]*tensor.Tensor, trace *runTrace) ([]*tensor.Tensor, error) {
	n := len(p.parts)
	r := &clientRun{
		p:        p,
		rv:       newRendezvous(),
		conns:    make([]*taskConn, n),
		trace:    trace,
		started:  make(chan struct{}),
		sent:     make([]bool, n),
		done:     make([]bool, n),
		pending:  n,
		finished: make(chan struct{}),
	}
	if n == 0 {
		r.finishLocked() // no part to wait for
	}
	if trace != nil {
		r.spans = make([]*telemetry.Span, n)
	}
	for name, k := range p.feedKeys {
		if feeds[name] == nil {
			return nil, fmt.Errorf("session: feed %q is nil", name)
		}
		r.rv.put(k, feeds[name])
	}
	s.mu.Lock()
	s.nextRun++
	r.id = s.nextRun
	s.mu.Unlock()

	err := r.start(s)
	close(r.started)
	if err == nil {
		err = p.local.run(s.res, trace, r.rv, r.localSend)
	}
	if err != nil {
		r.fail(err)
	}
	<-r.finished
	for _, c := range r.conns {
		if c != nil {
			c.drop(r.id)
		}
	}
	r.mu.Lock()
	err = r.err
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(p.fetchKeys))
	for i, k := range p.fetchKeys {
		if out[i] = r.rv.value(k); out[i] == nil {
			return nil, fmt.Errorf("session: fetch %d produced no value", i)
		}
		if p.fetchCopy[i] {
			out[i] = out[i].Clone()
		}
	}
	return out, nil
}

// clientRun is one Run of a plan as its client sees it.
type clientRun struct {
	id      uint64
	p       *plan
	rv      *rendezvous
	conns   []*taskConn // per part
	trace   *runTrace
	spans   []*telemetry.Span // per part, from its run frame out to its done frame in (traced Runs)
	started chan struct{}

	mu       sync.Mutex
	sent     []bool // per part: its run frame is out
	done     []bool // per part: its done frame is in
	pending  int
	err      error
	finished chan struct{} // closed once every part is done or the Run failed
	over     bool
}

// start registers (where needed) and starts every part.
func (r *clientRun) start(s *Session) error {
	for i, part := range r.p.parts {
		c, err := s.conn(part)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.conns[i] = c
		r.mu.Unlock()
		if err := c.startRun(r, i); err != nil {
			return err
		}
	}
	return nil
}

// markSent records part i's run frame as out; if the Run failed meanwhile,
// nobody else will abort that part.
func (r *clientRun) markSent(i int) {
	r.mu.Lock()
	r.sent[i] = true
	failed := r.err != nil
	r.mu.Unlock()
	if failed {
		r.conns[i].abort(r.id)
	}
}

func (r *clientRun) finishLocked() {
	if !r.over {
		r.over = true
		close(r.finished)
	}
}

// fail ends the Run with err: the rendezvous wakes local receivers with
// it, and every part still running is told to abort, so none waits for a
// value that will not come.
func (r *clientRun) fail(err error) {
	r.mu.Lock()
	if r.err != nil {
		r.mu.Unlock()
		return
	}
	r.err = err
	var abort []*taskConn
	for i, c := range r.conns {
		if r.sent[i] && !r.done[i] {
			abort = append(abort, c)
		}
	}
	r.finishLocked()
	r.mu.Unlock()
	r.rv.fail(err)
	for _, c := range abort {
		c.abort(r.id)
	}
}

func (r *clientRun) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// partDone records part i's done frame.
func (r *clientRun) partDone(i int, msg string) {
	r.mu.Lock()
	if r.done[i] {
		r.mu.Unlock()
		return
	}
	r.done[i] = true
	r.pending--
	if msg == "" && r.pending == 0 {
		r.finishLocked()
	}
	r.mu.Unlock()
	if r.spans != nil {
		r.spans[i].End()
	}
	if msg != "" {
		r.fail(fmt.Errorf("session: partition on %s: %s", r.p.parts[i].device, msg))
	}
}

// arrived takes a value (or chunk) part i sent out: it lands in the
// rendezvous and relays, frame bytes unchanged, to every other part that
// receives it.
func (r *clientRun) arrived(i int, f *frame, raw []byte) {
	if err := r.rv.deliver(f); err != nil {
		r.fail(fmt.Errorf("session: from %s: %w", r.p.parts[i].device, err))
		return
	}
	to := r.p.consumers[f.keys[0]]
	if len(to) == 0 {
		return
	}
	<-r.started // a part's run frame must precede its values
	if r.failed() {
		return
	}
	for _, j := range to {
		if j == i {
			continue
		}
		if err := r.conns[j].sendRaw(raw); err != nil {
			r.fail(err)
			return
		}
	}
}

// localSend is the local partition's _Send: the value lands in the
// rendezvous and ships to every part that receives it.
func (r *clientRun) localSend(key uint64, t *tensor.Tensor) error {
	r.rv.put(key, t)
	to := r.p.consumers[key]
	if len(to) == 0 {
		return nil
	}
	return sendValue(func(p []byte) error {
		for _, j := range to {
			if err := r.conns[j].sendRaw(p); err != nil {
				return err
			}
		}
		return nil
	}, r.id, key, t)
}

// taskConn is a session's stream to one task: the partitions registered
// over it and the Runs in flight on it.
type taskConn struct {
	st     *rpc.Stream
	device string
	done   chan struct{} // closed when readLoop exits

	mu         sync.Mutex
	registered map[uint64]bool
	runs       map[uint64]partRun
	err        error
}

// partRun is a Run in flight on a stream, and which of its parts the
// stream's task runs.
type partRun struct {
	r    *clientRun
	part int
}

// conn returns the session's live stream to a part's task, dialing (and so
// re-registering from scratch) when there is none.
func (s *Session) conn(part *remotePart) (*taskConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("session: closed")
	}
	if c := s.conns[part.task]; c != nil && c.alive() {
		return c, nil
	}
	st, err := s.opts.Remote.DialTask(part.task.job, part.task.task)
	if err != nil {
		return nil, fmt.Errorf("session: dial %s: %w", part.device, err)
	}
	c := &taskConn{st: st, device: part.device, done: make(chan struct{}),
		registered: make(map[uint64]bool), runs: make(map[uint64]partRun)}
	if s.conns == nil {
		s.conns = make(map[taskKey]*taskConn)
	}
	s.conns[part.task] = c
	go c.readLoop()
	return c, nil
}

func (c *taskConn) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

// startRun sends part i's run frame, registering the part on this stream
// first if it is not yet.
func (c *taskConn) startRun(r *clientRun, i int) error {
	part := r.p.parts[i]
	if r.trace != nil {
		r.spans[i] = r.trace.child(part.name, "Partition", part.device)
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return fmt.Errorf("session: task %s: %w", c.device, err)
	}
	if !c.registered[part.handle] {
		// Under c.mu, so no Run's run frame for this handle can overtake
		// the registration on the stream; c.write, because sendRaw's fail
		// takes c.mu.
		if err := sendFrame(c.write, &frame{kind: frameRegister, handle: part.handle, graph: part.graphDef}); err != nil {
			c.mu.Unlock()
			c.fail(err)
			return fmt.Errorf("session: register partition on %s: %w", c.device, err)
		}
		c.registered[part.handle] = true
	}
	c.runs[r.id] = partRun{r, i}
	c.mu.Unlock()

	// Feeds ride inline up to one chunk's worth; the rest follow as value
	// frames, so no frame outgrows the buffer pool.
	f := &frame{kind: frameRun, handle: part.handle, run: r.id}
	var rest []uint64
	inline := int64(0)
	for _, k := range part.feeds {
		v := r.rv.value(k)
		if inline += v.ByteSize(); inline > maxChunkBytes {
			rest = append(rest, k)
			continue
		}
		f.keys = append(f.keys, k)
		f.vals = append(f.vals, v)
	}
	err := c.send(f)
	if err == nil {
		r.markSent(i)
		for _, k := range rest {
			if err = sendValue(c.sendRaw, r.id, k, r.rv.value(k)); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("session: start partition on %s: %w", c.device, err)
	}
	return nil
}

func (c *taskConn) send(f *frame) error { return sendFrame(c.sendRaw, f) }

// sendRaw sends one frame and fails the conn if the send fails: the stream
// is dead, and until readLoop notices, Session.conn would hand it to the
// next Run.
func (c *taskConn) sendRaw(p []byte) error {
	err := c.write(p)
	if err != nil {
		c.fail(err)
	}
	return err
}

func (c *taskConn) write(p []byte) error {
	mStreamBytes.Add(int64(len(p)))
	return c.st.Send(p)
}

func (c *taskConn) abort(run uint64) {
	c.send(&frame{kind: frameAbort, run: run})
}

func (c *taskConn) drop(run uint64) {
	c.mu.Lock()
	delete(c.runs, run)
	c.mu.Unlock()
}

func (c *taskConn) readLoop() {
	defer close(c.done)
	for {
		if err := c.st.RecvFunc(c.dispatch); err != nil {
			if err == io.EOF {
				err = errors.New("stream closed by the task")
			}
			c.fail(err)
			return
		}
	}
}

// dispatch routes one frame from the task to its Run; frames of Runs that
// already ended are dropped.
func (c *taskConn) dispatch(p []byte) error {
	mStreamBytes.Add(int64(len(p)))
	f, err := decodeFrame(p)
	if err != nil {
		return err
	}
	c.mu.Lock()
	pr, ok := c.runs[f.run]
	c.mu.Unlock()
	if !ok {
		return nil
	}
	switch f.kind {
	case frameTensor, frameHead, frameMore:
		pr.r.arrived(pr.part, &f, p)
	case frameDone:
		pr.r.partDone(pr.part, f.errMsg)
	default:
		return fmt.Errorf("session: unexpected partition frame kind %d from %s", f.kind, c.device)
	}
	return nil
}

// fail marks the stream dead and fails every Run in flight on it; the next
// Run that needs the task dials a fresh stream.
func (c *taskConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	runs := c.runs
	c.runs = make(map[uint64]partRun)
	c.mu.Unlock()
	c.st.Close()
	for _, pr := range runs {
		pr.r.fail(fmt.Errorf("session: task %s: %w", c.device, err))
	}
}

// rendezvous holds the values crossing partition edges in one Run on one
// side, keyed by edge; receivers block until theirs arrives or the Run
// fails.
type rendezvous struct {
	mu    sync.Mutex
	cond  sync.Cond
	vals  map[uint64]*tensor.Tensor
	parts map[uint64]*partial // values still arriving in chunks
	err   error
}

// partial is a chunked value being assembled: next elements are in.
type partial struct {
	t    *tensor.Tensor
	next int
}

func newRendezvous() *rendezvous {
	r := &rendezvous{vals: make(map[uint64]*tensor.Tensor)}
	r.cond.L = &r.mu
	return r
}

// deliver stores the value or chunk a tensor, head or more frame carries.
func (r *rendezvous) deliver(f *frame) error {
	k, c := f.keys[0], f.vals[0]
	if f.kind == frameTensor {
		r.put(k, c)
		return nil
	}
	r.mu.Lock()
	p := r.parts[k]
	switch {
	case f.kind == frameHead && p == nil:
		if int64(f.shape.NumElements())*int64(c.DType().Size()) > tensor.MaxEncodedBytes {
			r.mu.Unlock()
			return tensor.ErrTooLarge
		}
		p = &partial{t: tensor.New(c.DType(), f.shape...)}
		if r.parts == nil {
			r.parts = make(map[uint64]*partial)
		}
		r.parts[k] = p
	case f.kind == frameHead || p == nil:
		r.mu.Unlock()
		return fmt.Errorf("session: chunk of edge %d out of order", k)
	}
	n := c.NumElements()
	if c.DType() != p.t.DType() || p.next+n > p.t.NumElements() {
		r.mu.Unlock()
		return fmt.Errorf("session: chunk of edge %d does not fit its value", k)
	}
	p.t.Flat(p.next, p.next+n).CopyFrom(c)
	p.next += n
	done := p.next == p.t.NumElements()
	if done {
		delete(r.parts, k)
		if _, dup := r.vals[k]; !dup {
			r.vals[k] = p.t
		}
	}
	r.mu.Unlock()
	tensor.Recycle(c)
	if done {
		r.cond.Broadcast()
	}
	return nil
}

// put stores a value; the first one under a key wins.
func (r *rendezvous) put(k uint64, t *tensor.Tensor) {
	r.mu.Lock()
	if _, dup := r.vals[k]; !dup {
		r.vals[k] = t
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// get waits for the value under k.
func (r *rendezvous) get(k uint64) (*tensor.Tensor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if t, ok := r.vals[k]; ok {
			return t, nil
		}
		if r.err != nil {
			return nil, r.err
		}
		r.cond.Wait()
	}
}

// value returns the value under k without waiting (nil if absent).
func (r *rendezvous) value(k uint64) *tensor.Tensor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vals[k]
}

// fail wakes every receiver still waiting with err.
func (r *rendezvous) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}
