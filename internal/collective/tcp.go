package collective

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// DefaultRecvTimeout bounds how long a NewNetTransport Recv waits for a peer
// before declaring it lost. Collectives are bulk-synchronous, so a peer that
// stays silent this long has almost certainly died rather than fallen behind.
const DefaultRecvTimeout = 2 * time.Minute

// Hub is a task's collective inbox: a rank's own sends and in-process
// peers' sends land in its lanes, stream edges from other processes
// (HandleStream, registered under StreamMethod) attach to them, and every
// NetTransport on the task takes its group's chunks from here.
type Hub struct {
	mu     sync.Mutex
	groups map[string]*hubGroup
	// dead is each group's highest closed epoch: groupAt refuses it and
	// every lower one, so a late chunk cannot re-create a closed inbox.
	dead   map[string]uint64
	closed bool
}

type hubGroup struct {
	epoch uint64
	mu    sync.Mutex
	lanes map[int]*lane
}

func (g *hubGroup) lane(from int) *lane {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.lanes[from]
	if !ok {
		l = newLane()
		g.lanes[from] = l
	}
	return l
}

func (g *hubGroup) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, l := range g.lanes {
		l.fail(err)
	}
}

// NewHub returns an empty inbox registry.
func NewHub() *Hub {
	return &Hub{groups: make(map[string]*hubGroup), dead: make(map[string]uint64)}
}

// groupAt returns the named group's inbox for one epoch, creating it on
// first use — a peer's first chunk may arrive before the local transport is
// constructed. Epochs fence incarnations: a caller carrying an older epoch
// than the group's current one gets a StaleEpochError, and a caller carrying
// a newer one supersedes the group — the old inbox is poisoned with the
// typed rejection (so its blocked receivers fail fast) and a fresh one is
// installed at the new epoch. A closed epoch stays closed: it is refused,
// and so is every epoch below it.
func (h *Hub) groupAt(name string, epoch uint64) (*hubGroup, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("collective: hub is closed")
	}
	g, ok := h.groups[name]
	if ok && epoch == g.epoch {
		h.mu.Unlock()
		return g, nil
	}
	if ok && epoch < g.epoch {
		cur := g.epoch
		h.mu.Unlock()
		return nil, &StaleEpochError{Group: name, Have: epoch, Current: cur}
	}
	if dead, ok := h.dead[name]; ok && epoch <= dead {
		h.mu.Unlock()
		if epoch < dead {
			return nil, &StaleEpochError{Group: name, Have: epoch, Current: dead}
		}
		return nil, fmt.Errorf("collective: group %q epoch %d is closed", name, epoch)
	}
	old := g // nil unless superseding
	g = &hubGroup{epoch: epoch, lanes: make(map[int]*lane)}
	h.groups[name] = g
	h.mu.Unlock()
	if old != nil {
		old.fail(&StaleEpochError{Group: name, Have: old.epoch, Current: epoch})
	}
	return g, nil
}

// CloseGroup poisons one group's lanes (receivers fail fast) and forgets it,
// whatever its epoch — the abort path.
func (h *Hub) CloseGroup(name string) {
	h.mu.Lock()
	g := h.groups[name]
	if g != nil {
		h.forgetLocked(name, g)
	}
	h.mu.Unlock()
	if g != nil {
		g.fail(fmt.Errorf("collective: group %q closed", name))
	}
}

// forgetLocked drops the group and remembers its epoch as closed.
func (h *Hub) forgetLocked(name string, g *hubGroup) {
	delete(h.groups, name)
	h.dead[name] = max(h.dead[name], g.epoch)
}

// CloseGroupEpoch poisons and forgets the group only while it is still at
// the given epoch. Transports close through this so a superseded
// incarnation's Close — CollInit replacement installs the new membership
// before closing the old — cannot tear down the group that replaced it.
func (h *Hub) CloseGroupEpoch(name string, epoch uint64) {
	h.mu.Lock()
	g := h.groups[name]
	if g == nil || g.epoch != epoch {
		h.mu.Unlock()
		return
	}
	h.forgetLocked(name, g)
	h.mu.Unlock()
	g.fail(fmt.Errorf("collective: group %q closed", name))
}

// Close poisons every group; registered after-the-fact groups fail too.
func (h *Hub) Close() {
	h.mu.Lock()
	groups := h.groups
	h.groups = make(map[string]*hubGroup)
	h.closed = true
	h.mu.Unlock()
	for name, g := range groups {
		g.fail(fmt.Errorf("collective: group %q closed", name))
	}
}

// deliver lands one message from a local edge in the group's epoch
// incarnation: the lookup runs per message because a CollInit replacement
// swaps the group object out, and a send into a superseded or closed epoch
// must fail rather than feed a poisoned lane. The lookup is two map hits
// under short mutexes — no allocation.
func (h *Hub) deliver(group string, epoch uint64, from int, m message) error {
	g, err := h.groupAt(group, epoch)
	if err != nil {
		return err
	}
	g.lane(from).put(m)
	return nil
}

// failLane poisons the sender's lane in the group's epoch incarnation. A
// stale epoch is a no-op: a dying zombie edge must not poison the lane of
// the membership that replaced it.
func (h *Hub) failLane(group string, epoch uint64, from int, err error) {
	g, gerr := h.groupAt(group, epoch)
	if gerr != nil {
		return
	}
	g.lane(from).fail(err)
}

// StreamMethod is the rpc stream method name for persistent collective
// edges; register Hub.HandleStream under it.
const StreamMethod = "CollStream"

// parseChunk decodes one relay record — the unit a stream edge carries:
//
//	uvarint key length | key | uvarint tag | tensor encoding
//
// The returned key aliases b; the tensor comes from the rank-1 pool.
func parseChunk(b []byte) ([]byte, uint64, *tensor.Tensor, error) {
	kl, n := wire.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < kl {
		return nil, 0, nil, fmt.Errorf("collective: malformed chunk record key")
	}
	key := b[n : n+int(kl)]
	b = b[n+int(kl):]
	tg, n := wire.Uvarint(b)
	if n <= 0 {
		return nil, 0, nil, fmt.Errorf("collective: malformed chunk record tag")
	}
	ten, rest, err := tensor.DecodePooled(b[n:])
	if err != nil {
		return nil, 0, nil, err
	}
	if len(rest) != 0 {
		tensor.Recycle(ten)
		return nil, 0, nil, fmt.Errorf("collective: %d trailing bytes in chunk record", len(rest))
	}
	return key, tg, ten, nil
}

// appendChunk is parseChunk's inverse.
func appendChunk(b []byte, key string, tg uint64, t *tensor.Tensor) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, tg)
	return t.Encode(b)
}

// HandleStream is the rpc.StreamHandler for StreamMethod: one persistent
// inbound edge from a peer rank. The first frame identifies the edge
// (uvarint group length | group | uvarint sender rank | uvarint epoch);
// every later frame is one chunk record. The handler attaches the stream to
// the sender's lane in that (group, epoch) and pumps nothing: the lane's
// takers take the chunks off the stream and decode them themselves, so
// receivers are transport-agnostic and a small chunk crosses no goroutine
// on its way to the rank that waits for it (the rpc layer reads a bulk one
// ahead of its taker). An edge that ends, cleanly or not, poisons the
// sender's lane once the chunks still queued on it are in the lane,
// cascading the failure to blocked receivers instead of leaving them to
// wait out the receive timeout. An edge whose epoch has been superseded gets
// a StaleEpochError back instead, and one whose epoch has been closed an
// error saying so — at the header, or as soon as its lane is poisoned — the
// handler error resets the stream, the sender's next Send fails with its
// text, and no lane of a dead or newer incarnation is touched.
func (h *Hub) HandleStream(st *rpc.Stream) error {
	buf, err := st.Recv(nil)
	if err != nil {
		return fmt.Errorf("collective: edge header: %w", err)
	}
	gl, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < gl {
		return fmt.Errorf("collective: malformed edge header")
	}
	group := string(buf[n : n+int(gl)])
	rest := buf[n+int(gl):]
	from64, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("collective: malformed edge header rank")
	}
	from := int(from64)
	epoch, k2 := binary.Uvarint(rest[k:])
	if k2 <= 0 {
		return fmt.Errorf("collective: malformed edge header epoch")
	}
	// Optional trailing trace/span ids (absent on headers from older
	// senders): under tracing, accepting an edge records a span in the
	// dialing rank's trace, joined by a flow arrow across the processes.
	if tail := rest[k+k2:]; len(tail) > 0 {
		if tr, n3 := binary.Uvarint(tail); n3 > 0 {
			if spn, n4 := binary.Uvarint(tail[n3:]); n4 > 0 {
				esc := telemetry.SpanContext{Trace: tr, Span: spn}
				if esc.Valid() {
					if s := telemetry.StartChild(esc, "collective_edge_accept"); s != nil {
						s.Arg("group", group).Arg("from", strconv.Itoa(from))
						s.FlowIn(telemetry.FlowID(esc.Trace, esc.Span))
						s.End()
					}
				}
			}
		}
	}
	g, err := h.groupAt(group, epoch)
	if err != nil {
		return err
	}
	l := g.lane(from)
	failed, err := l.attach(st, from)
	if err != nil {
		return err
	}
	select {
	case <-failed:
		return l.err // set before failed was closed
	case <-st.Done():
		return l.drainEdge(st)
	}
}

// clonePooled copies t into a pooled tensor when its shape allows, so the
// receiving side can recycle the copy instead of allocating per message.
func clonePooled(t *tensor.Tensor) *tensor.Tensor {
	if t.Rank() != 1 {
		return t.Clone()
	}
	c := tensor.GetPooled(t.DType(), t.NumElements())
	_ = c.CopyFrom(t) // same dtype and size: cannot fail
	return c
}

// TransportConfig tunes NewNetTransport beyond the defaults.
type TransportConfig struct {
	// DisableShm forces network edges even to co-located peers. Set it for
	// apples-to-apples network benchmarks; it must be uniform across the
	// group (a mixed group would deliver into hubs its receivers do not
	// read). The TFHPC_NO_SHM environment variable disables co-located
	// edges process-wide.
	DisableShm bool
}

// LocalEdges reports whether co-located peers are reached in process: not
// when DisableShm or TFHPC_NO_SHM says otherwise.
func (c TransportConfig) LocalEdges() bool {
	return !c.DisableShm && os.Getenv("TFHPC_NO_SHM") == ""
}

// edge is one rank's sending half of a peer link. The edge carries its
// epoch, which picks the receiving lane set, so key is the collective's own
// key; the tensor is only read during the call.
type edge interface {
	send(key string, tg uint64, t *tensor.Tensor) error
	close()
}

// streamEdge ships chunk records over one persistent rpc stream.
type streamEdge struct {
	c    *rpc.Client
	addr string

	mu  sync.Mutex
	st  *rpc.Stream
	buf []byte
}

func newStreamEdge(addr, group string, from int, epoch uint64) (*streamEdge, error) {
	e := &streamEdge{c: rpc.Dial(addr), addr: addr}
	st, err := e.c.OpenStream(StreamMethod)
	if err != nil {
		e.c.Close()
		return nil, fmt.Errorf("collective: open edge to %s: %w", addr, err)
	}
	span := telemetry.StartRoot("collective_edge_open")
	span.Arg("peer", addr).Arg("group", group)
	sc := span.Context()
	hdr := binary.AppendUvarint(nil, uint64(len(group)))
	hdr = append(hdr, group...)
	hdr = binary.AppendUvarint(hdr, uint64(from))
	hdr = binary.AppendUvarint(hdr, epoch)
	// Trailing trace/span ids (zero bytes when untraced): the accepting
	// rank's edge-accept span joins this trace.
	hdr = binary.AppendUvarint(hdr, sc.Trace)
	hdr = binary.AppendUvarint(hdr, sc.Span)
	if err := st.Send(hdr); err != nil {
		span.End()
		st.Close()
		e.c.Close()
		return nil, fmt.Errorf("collective: edge header to %s: %w", addr, err)
	}
	span.FlowOut(telemetry.FlowID(sc.Trace, sc.Span))
	span.End()
	e.st = st
	return e, nil
}

func (e *streamEdge) send(key string, tg uint64, t *tensor.Tensor) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		return fmt.Errorf("collective: edge to %s closed", e.addr)
	}
	b, err := appendChunk(e.buf[:0], key, tg, t)
	if cap(b) > cap(e.buf) {
		e.buf = b
	}
	if err != nil {
		return err
	}
	if err := e.st.Send(b); err != nil {
		return fmt.Errorf("collective: stream send to %s: %w", e.addr, err)
	}
	return nil
}

func (e *streamEdge) close() {
	e.mu.Lock()
	st := e.st
	e.st = nil
	e.mu.Unlock()
	if st != nil {
		st.CloseSend()
		st.Close()
	}
	e.c.Close()
}

// localEdge hands a pooled copy of each chunk straight to an in-process hub:
// the rank's own for a send to itself, the peer's for a peer in this process.
type localEdge struct {
	hub   *Hub
	group string
	from  int
	epoch uint64
}

func (e *localEdge) send(key string, tg uint64, t *tensor.Tensor) error {
	c := clonePooled(t)
	if err := e.hub.deliver(e.group, e.epoch, e.from, message{key: key, tag: tg, t: c}); err != nil {
		tensor.Recycle(c)
		return err
	}
	return nil
}

// close poisons the sender's lane in the receiving hub, as the end of a
// stream edge does on the far side, so a peer blocked on this rank fails
// fast. For a closed or superseded epoch it is a no-op.
func (e *localEdge) close() { e.hub.failLane(e.group, e.epoch, e.from, errLeft(e.from)) }

// errLeft is what a closing rank leaves in its peers' lanes.
func errLeft(from int) error { return fmt.Errorf("collective: rank %d left the group", from) }

// NetTransport is one rank's endpoint of a group whose ranks each read a
// Hub. Every peer edge is established at construction — there is no lazy
// dial under a lock on the send path — and each edge picks its carrier by
// where the peer is: a local edge into the peer's hub when it lives in this
// process, a persistent rpc stream otherwise. Either way a chunk lands in a
// hub lane, so Recv never cares how it arrived.
type NetTransport struct {
	group   string
	rank    int
	hub     *Hub
	timeout time.Duration // bounds each Recv; 0 waits without a deadline
	// inbox[from] is the hub the chunks from that rank land in: hub for
	// stream peers and self, own for co-located peers.
	inbox []*Hub
	// own is this task's registered hub when co-located edges are on, nil
	// otherwise. It is hub itself on a cluster.Server.
	own *Hub
	// epoch names this group incarnation; all its ranks share it (CollInit
	// distributes it). Every hub keeps one lane set per (group, epoch), and
	// each edge carries its epoch to the receiving hub, so a chunk still in
	// flight from an aborted run can never match a collective of the
	// membership that replaced it.
	epoch uint64

	edges  []edge
	closed atomic.Bool
}

// newNetTransport is the setup every NetTransport shares: rank's endpoint of
// a size-rank group that reads hub (and own, when non-nil), with its edges
// still to be filled in. It installs this incarnation up front in those
// hubs: a newer epoch supersedes (and poisons) the previous one, and a stale
// re-init fails fast here instead of producing an endpoint every peer would
// reject.
func newNetTransport(group string, rank, size int, hub, own *Hub, timeout time.Duration, epoch uint64) (*NetTransport, error) {
	for _, h := range []*Hub{hub, own} {
		if h == nil {
			continue
		}
		if _, err := h.groupAt(group, epoch); err != nil {
			return nil, err
		}
	}
	t := &NetTransport{
		group:   group,
		rank:    rank,
		hub:     hub,
		timeout: timeout,
		own:     own,
		epoch:   epoch,
		inbox:   make([]*Hub, size),
		edges:   make([]edge, size),
	}
	for from := range t.inbox {
		t.inbox[from] = hub
	}
	return t, nil
}

// NewNetTransport builds rank's endpoint for the named group over the given
// task addresses (one per rank, e.g. a cluster.Spec job). timeout bounds
// each Recv; 0 applies DefaultRecvTimeout. epoch identifies the group
// incarnation and must be identical on every rank. It starts no goroutine
// that outlives it.
func NewNetTransport(group string, rank int, addrs []string, hub *Hub, timeout time.Duration, epoch uint64, cfg TransportConfig) (*NetTransport, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("collective: rank %d outside %d addresses", rank, len(addrs))
	}
	if timeout <= 0 {
		timeout = DefaultRecvTimeout
	}
	var own *Hub
	if cfg.LocalEdges() {
		own = lookupShm(addrs[rank])
	}
	t, err := newNetTransport(group, rank, len(addrs), hub, own, timeout, epoch)
	if err != nil {
		return nil, err
	}

	// Establish all edges up front, dialing network peers concurrently.
	// Peers choose local edges by the same registry lookup, so "its address
	// is registered here" predicts "its chunks land in our own hub".
	var wg sync.WaitGroup
	errs := make([]error, len(addrs))
	for to, addr := range addrs {
		var dst *Hub
		switch {
		case to == rank:
			dst = hub
		case own != nil:
			if dst = lookupShm(addr); dst != nil {
				t.inbox[to] = own
			}
		}
		if dst != nil {
			t.edges[to] = &localEdge{hub: dst, group: group, from: rank, epoch: epoch}
			continue
		}
		wg.Add(1)
		go func(to int) {
			defer wg.Done()
			t.edges[to], errs[to] = newStreamEdge(addrs[to], group, rank, epoch)
		}(to)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.closeEdges()
			return nil, err
		}
	}
	return t, nil
}

// Rank returns this endpoint's position in the group.
func (t *NetTransport) Rank() int { return t.rank }

// Size returns the group size.
func (t *NetTransport) Size() int { return len(t.edges) }

// Send ships one chunk to the peer over its edge.
func (t *NetTransport) Send(to int, key string, tg uint64, ten *tensor.Tensor) error {
	if to < 0 || to >= len(t.edges) {
		return fmt.Errorf("collective: destination rank %d out of %d", to, len(t.edges))
	}
	if t.closed.Load() {
		return fmt.Errorf("collective: rank %d is closed", t.rank)
	}
	if err := t.edges[to].send(key, tg, ten); err != nil {
		return fmt.Errorf("collective: send to rank %d: %w", to, err)
	}
	return nil
}

// Recv blocks for the matching chunk from the given sender, up to the
// transport's receive timeout. Once a newer incarnation has superseded this
// endpoint's epoch, Recv fails fast with the typed stale-epoch rejection
// instead of waiting out the timeout.
func (t *NetTransport) Recv(from int, key string, tg uint64) (*tensor.Tensor, error) {
	if from < 0 || from >= len(t.edges) {
		return nil, fmt.Errorf("collective: source rank %d out of %d", from, len(t.edges))
	}
	g, err := t.inbox[from].groupAt(t.group, t.epoch)
	if err != nil {
		return nil, err
	}
	return g.lane(from).take(key, tg, t.timeout)
}

func (t *NetTransport) closeEdges() {
	for _, e := range t.edges {
		if e != nil {
			e.close()
		}
	}
}

// Close releases peer edges, which poisons this rank's lanes in its peers'
// hubs, and poisons the local group inboxes — but only this epoch's
// incarnation of them: when a CollInit replacement has already installed a
// newer membership under the same name, closing the superseded transport
// must leave the new inbox untouched. The closed epoch stays fenced, so a
// co-located peer's later send fails instead of re-creating the inbox.
func (t *NetTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.closeEdges()
	t.hub.CloseGroupEpoch(t.group, t.epoch)
	if t.own != nil {
		t.own.CloseGroupEpoch(t.group, t.epoch)
	}
	return nil
}
