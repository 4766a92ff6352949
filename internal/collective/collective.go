package collective

import (
	"fmt"
	"sync"
	"time"

	"tfhpc/internal/gemm"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// Reduction op names accepted by AllReduce.
const (
	OpSum = "sum"
	OpMax = "max"
)

// Options tune a group. Every rank of one group must be constructed with
// identical options — the algorithm choice and thresholds shape the message
// pattern, so they are part of the bulk-synchronous contract.
type Options struct {
	// ChunkBytes is the pipelining granularity: each ring segment is split
	// into chunks of at most this many bytes, so transmission of chunk k
	// overlaps the reduction of chunk k-1. Default 256 KiB.
	ChunkBytes int
	// Algorithm forces one allreduce/broadcast algorithm ("ring",
	// "doubling"); "" or "auto" picks per call by payload size.
	Algorithm string
	// SwitchBytes is the picker threshold: allreduces whose per-rank payload
	// (bytes/p) is strictly below it run recursive doubling, the rest run
	// the ring (the threshold records the measured crossover, where the
	// ring already wins). 0 = DefaultSwitchBytes.
	SwitchBytes int
	// Fusion tunes the group's fusion buffer (AllReduceFused).
	Fusion FusionOptions
}

// DefaultChunkBytes is the pipelining granularity when Options leaves it 0.
const DefaultChunkBytes = 256 << 10

// Group binds collective operations to one rank's transport endpoint. A
// group may run concurrent collectives only under distinct keys; calls that
// share a key must be issued in the same order on every rank (the usual
// bulk-synchronous contract, enforced by Horovod with a coordinator and here
// by symmetric graph construction).
type Group struct {
	tr   Transport
	opts Options

	mu  sync.Mutex
	seq map[string]uint64

	fuMu   sync.Mutex
	fusion *Fusion

	pendMu   sync.Mutex
	pendings map[string]*Pending
}

// NewGroup wraps a transport endpoint.
func NewGroup(tr Transport, opts Options) *Group {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultChunkBytes
	}
	if opts.SwitchBytes <= 0 {
		opts.SwitchBytes = DefaultSwitchBytes
	}
	return &Group{tr: tr, opts: opts, seq: make(map[string]uint64), pendings: make(map[string]*Pending)}
}

// NewLoopbackGroups is the single-call constructor tests and in-process runs
// use: p ranks in this process, one group per rank. Each rank gets its own
// Hub and the transport cluster tasks use, with a local edge into every
// rank's hub, its own included — a cluster whose peers are all co-located.
// It has no addresses and dials nothing, and it never consults TFHPC_NO_SHM:
// the groups stay in process whatever that variable says, which the
// benchmark's sgd inproc_step_ms row (run with it set) depends on. Recv
// waits without a deadline; a closing rank poisons its lane in every peer's
// hub, so its partners fail fast instead.
func NewLoopbackGroups(p int, opts Options) []*Group {
	if p <= 0 {
		panic("collective: loopback needs at least one rank")
	}
	const group, epoch = "loopback", 1
	hubs := make([]*Hub, p)
	for r := range hubs {
		hubs[r] = NewHub()
	}
	gs := make([]*Group, p)
	for r := range gs {
		t, err := newNetTransport(group, r, p, hubs[r], nil, 0, epoch)
		if err != nil {
			panic(err) // a fresh hub accepts any epoch
		}
		for to, dst := range hubs {
			t.edges[to] = &localEdge{hub: dst, group: group, from: r, epoch: epoch}
		}
		gs[r] = NewGroup(t, opts)
	}
	return gs
}

// Rank returns this member's rank.
func (g *Group) Rank() int { return g.tr.Rank() }

// Size returns the group size.
func (g *Group) Size() int { return g.tr.Size() }

// Transport exposes the underlying endpoint (tests, diagnostics).
func (g *Group) Transport() Transport { return g.tr }

// Close tears down the underlying transport endpoint, failing the fusion
// buffer's waiters and any unjoined async handles along the way.
func (g *Group) Close() error {
	g.fuMu.Lock()
	f := g.fusion
	g.fuMu.Unlock()
	if f != nil {
		f.Close()
	}
	return g.tr.Close()
}

func (g *Group) nextSeq(key string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq[key]++
	return g.seq[key]
}

// fatal records an unrecoverable mid-protocol failure: the group's
// bulk-synchronous state cannot be resynchronised, so the endpoint is
// closed, which poisons the local inbox and this rank's lane in every
// peer's inbox, over any edge type. Ring neighbours therefore cascade the
// error instead of hanging on traffic that will never arrive.
func (g *Group) fatal(err error) error {
	g.tr.Close()
	return err
}

func (g *Group) chunkElems(dt tensor.DType) int {
	c := g.opts.ChunkBytes / dt.Size()
	if c < 1 {
		c = 1
	}
	return c
}

// SegBounds splits n elements into p contiguous near-equal segments — the
// first n%p segments carry one extra element — and returns segment s's
// half-open bounds. It is the ring algorithms' segment layout and the
// split ReduceScatter's output follows, exported so consumers (sgd's
// parameter-tensor chunking, shard assembly) can mirror it without
// duplicating the arithmetic.
func SegBounds(n, p, s int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = s*base + min(s, rem)
	size := base
	if s < rem {
		size++
	}
	return lo, lo + size
}

// slicer adapts the generic ring code to one element type.
type slicer[T any] struct {
	wrap func(tensor.Shape, []T) *tensor.Tensor
	data func(*tensor.Tensor) []T
}

var (
	slF32  = slicer[float32]{tensor.FromF32, (*tensor.Tensor).F32}
	slF64  = slicer[float64]{tensor.FromF64, (*tensor.Tensor).F64}
	slI32  = slicer[int32]{tensor.FromI32, (*tensor.Tensor).I32}
	slI64  = slicer[int64]{tensor.FromI64, (*tensor.Tensor).I64}
	slC64  = slicer[complex64]{tensor.FromC64, (*tensor.Tensor).C64}
	slC128 = slicer[complex128]{tensor.FromC128, (*tensor.Tensor).C128}
	slBool = slicer[bool]{tensor.FromBool, (*tensor.Tensor).Bools}
)

// reduceGrain is the minimum per-chunk work before a reduction fans out
// across the gemm worker pool.
const reduceGrain = 1 << 13

func sumOf[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](dst, a, b []T) {
	gemm.ParallelFor(len(dst), reduceGrain, func(lo, hi int) {
		d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	})
}

func maxOf[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](dst, a, b []T) {
	gemm.ParallelFor(len(dst), reduceGrain, func(lo, hi int) {
		d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			if y[i] > x[i] {
				d[i] = y[i]
			} else {
				d[i] = x[i]
			}
		}
	})
}

// combinerFor returns the fused ternary kernel dst = a ⊕ b.
func combinerFor[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](op string) (func(dst, a, b []T), error) {
	switch op {
	case "", OpSum:
		return sumOf[T], nil
	case OpMax:
		return maxOf[T], nil
	}
	return nil, fmt.Errorf("collective: unknown reduction op %q (want sum|max)", op)
}

// AllReduce combines equal-shaped tensors element-wise across all ranks and
// returns the full result on every rank. The algorithm is picked per call
// (Options.Algorithm, or by payload size under "auto"): the bandwidth-optimal
// ring — a reduce-scatter pass leaves each rank owning one fully-reduced
// segment, then an allgather pass circulates the finished segments, 2(p−1)
// steps moving n/p elements each, so the per-rank traffic is 2n(p−1)/p no
// matter how large the group — for large payloads, and the latency-optimal
// recursive doubling (log2(p) full-vector exchanges) below the SwitchBytes
// per-rank threshold. key isolates concurrent collectives; ranks must call
// with the same key in the same order.
func (g *Group) AllReduce(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	seq := g.nextSeq(key)
	return g.allReduceSeq(key, seq, t, op, g.pickAlgorithm(t.ByteSize()))
}

// Pending is an in-flight asynchronous collective: the handle side of
// AllReduceAsync / StartAllReduce.
type Pending struct {
	ch chan pendingResult
}

type pendingResult struct {
	t   *tensor.Tensor
	err error
}

// Wait blocks until the collective finishes and returns its result. Wait
// may be called once.
func (p *Pending) Wait() (*tensor.Tensor, error) {
	r := <-p.ch
	return r.t, r.err
}

// AllReduceAsync issues an allreduce without blocking: the sequence slot is
// reserved synchronously — so the cross-rank issue order under one key is
// the call order, exactly as for AllReduce — but the wire work runs on a
// goroutine and the result is claimed via Pending.Wait. This is the
// double-buffering primitive: start step k's reduction, keep computing, and
// join it while step k+1's traffic is already in flight under another key.
func (g *Group) AllReduceAsync(key string, t *tensor.Tensor, op string) *Pending {
	seq := g.nextSeq(key)
	alg := g.pickAlgorithm(t.ByteSize())
	p := &Pending{ch: make(chan pendingResult, 1)}
	go func() {
		out, err := g.allReduceSeq(key, seq, t, op, alg)
		p.ch <- pendingResult{out, err}
	}()
	return p
}

// StartAllReduce issues an asynchronous allreduce and parks it under a
// named handle for a later JoinAllReduce — the op-kernel form of
// AllReduceAsync, usable across session Run boundaries (start the loss
// reduction in step k's Run, join it in step k+1's while k+1's own traffic
// overlaps). A handle admits one in-flight collective at a time.
func (g *Group) StartAllReduce(handle, key string, t *tensor.Tensor, op string) error {
	g.pendMu.Lock()
	if _, busy := g.pendings[handle]; busy {
		g.pendMu.Unlock()
		return fmt.Errorf("collective: async handle %q already has an unjoined collective", handle)
	}
	pend := g.AllReduceAsync(key, t, op)
	g.pendings[handle] = pend
	g.pendMu.Unlock()
	return nil
}

// JoinAllReduce claims the named handle's result, blocking until the
// collective finishes.
func (g *Group) JoinAllReduce(handle string) (*tensor.Tensor, error) {
	g.pendMu.Lock()
	pend, ok := g.pendings[handle]
	delete(g.pendings, handle)
	g.pendMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("collective: async handle %q has no started collective", handle)
	}
	return pend.Wait()
}

// AllReduceFused posts one tensor to the group's fusion buffer and blocks
// until the coalesced collective that carries it completes — many small
// concurrent posts ride a single fused pass (see Fusion).
func (g *Group) AllReduceFused(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	return g.Fusion().AllReduce(key, t, op)
}

// Fusion returns the group's fusion buffer, creating it on first use with
// the group's Options.Fusion.
func (g *Group) Fusion() *Fusion {
	g.fuMu.Lock()
	defer g.fuMu.Unlock()
	if g.fusion == nil {
		g.fusion = newFusion(g, g.opts.Fusion)
	}
	return g.fusion
}

func ringAllReduce[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](g *Group, key string, seq uint64, in *tensor.Tensor, sl slicer[T], op string, span *telemetry.Span) (*tensor.Tensor, error) {
	combine, err := combinerFor[T](op)
	if err != nil {
		return nil, err
	}
	p, r := g.Size(), g.Rank()
	if p == 1 {
		return in.Clone(), nil
	}
	src := sl.data(in)
	n := len(src)
	out := tensor.New(in.DType(), in.Shape()...)
	data := sl.data(out)
	next, prev := (r+1)%p, (r-1+p)%p
	chunk := g.chunkElems(in.DType())

	for phase := 0; phase < 2; phase++ {
		phaseName := "reduce_scatter"
		if phase != phaseReduceScatter {
			phaseName = "allgather"
		}
		phaseSpan := span.Child(phaseName)
		for step := 0; step < p-1; step++ {
			var sendSeg, recvSeg int
			if phase == phaseReduceScatter {
				sendSeg = (r - step + p) % p
				recvSeg = (r - step - 1 + p) % p
			} else {
				sendSeg = (r + 1 - step + 2*p) % p
				recvSeg = (r - step + p) % p
			}
			sLo, sHi := SegBounds(n, p, sendSeg)
			rLo, rHi := SegBounds(n, p, recvSeg)

			// The first reduce-scatter step ships the raw input segment;
			// every later send ships a segment this rank finished writing in
			// an earlier step. The output is therefore written exactly once
			// per segment per phase and the input is never cloned.
			sendBuf := data
			if phase == phaseReduceScatter && step == 0 {
				sendBuf = src
			}

			// The sender runs asynchronously: while chunk k is in flight the
			// receive loop below is still reducing chunk k-1. The segments
			// are disjoint, so there is no aliasing.
			errc := make(chan error, 1)
			go func(buf []T, lo, hi, phase, step int) {
				for k, off := 0, lo; off < hi; k, off = k+1, off+chunk {
					end := min(off+chunk, hi)
					// A view, not a copy: Send consumes the payload before
					// returning (local edges clone, stream edges
					// serialise), and this segment is not mutated again
					// until after the step's receive completes.
					payload := sl.wrap(tensor.Shape{end - off}, buf[off:end:end])
					if err := g.tr.Send(next, key, tag(seq, phase, step, k), payload); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}(sendBuf, sLo, sHi, phase, step)

			var recvErr error
			for k, off := 0, rLo; off < rHi; k, off = k+1, off+chunk {
				end := min(off+chunk, rHi)
				msg, err := g.tr.Recv(prev, key, tag(seq, phase, step, k))
				if err != nil {
					recvErr = err
					break
				}
				if msg.DType() != in.DType() || msg.NumElements() != end-off {
					recvErr = fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
						key, prev, msg.DType(), msg.Shape(), end-off, in.DType())
					break
				}
				got := sl.data(msg)
				if phase == phaseReduceScatter {
					// Fused first touch: out = in ⊕ incoming (each segment is
					// received exactly once per phase, so there is no prior
					// partial to preserve).
					combine(data[off:end], src[off:end], got)
				} else {
					copy(data[off:end], got)
				}
				tensor.Recycle(msg)
			}
			// Always join the sender before surfacing any receive error.
			if err := <-errc; err != nil {
				return nil, g.fatal(err)
			}
			if recvErr != nil {
				return nil, g.fatal(recvErr)
			}
		}
		phaseSpan.End()
	}
	return out, nil
}

// AllGather concatenates equal-shaped per-rank tensors along a new leading
// slot: rank-0 inputs produce a [p] vector, rank-k inputs a tensor whose
// first dimension is p times larger. The ring circulates each rank's
// segment p−1 hops, chunked like AllReduce.
func (g *Group) AllGather(key string, t *tensor.Tensor) (*tensor.Tensor, error) {
	switch t.DType() {
	case tensor.Float32:
		return ringAllGather(g, key, t, slF32)
	case tensor.Float64:
		return ringAllGather(g, key, t, slF64)
	case tensor.Int32:
		return ringAllGather(g, key, t, slI32)
	case tensor.Int64:
		return ringAllGather(g, key, t, slI64)
	case tensor.Complex64:
		return ringAllGather(g, key, t, slC64)
	case tensor.Complex128:
		return ringAllGather(g, key, t, slC128)
	case tensor.Bool:
		return ringAllGather(g, key, t, slBool)
	}
	return nil, fmt.Errorf("collective: allgather does not support dtype %v", t.DType())
}

// gatherShape is the output shape of an allgather over p ranks.
func gatherShape(in tensor.Shape, p int) tensor.Shape {
	if in.Rank() == 0 {
		return tensor.Shape{p}
	}
	out := in.Clone()
	out[0] *= p
	return out
}

func ringAllGather[T any](g *Group, key string, in *tensor.Tensor, sl slicer[T]) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	m := in.NumElements()
	out := tensor.New(in.DType(), gatherShape(in.Shape(), p)...)
	data := sl.data(out)
	copy(data[r*m:(r+1)*m], sl.data(in))
	if p == 1 {
		return out, nil
	}
	seq := g.nextSeq(key)
	next, prev := (r+1)%p, (r-1+p)%p
	chunk := g.chunkElems(in.DType())

	for step := 0; step < p-1; step++ {
		sendSeg := (r - step + p) % p
		recvSeg := (r - step - 1 + p) % p
		sLo, rLo := sendSeg*m, recvSeg*m

		errc := make(chan error, 1)
		go func(lo, step int) {
			for k, off := 0, lo; off < lo+m; k, off = k+1, off+chunk {
				end := min(off+chunk, lo+m)
				payload := sl.wrap(tensor.Shape{end - off}, data[off:end:end])
				if err := g.tr.Send(next, key, tag(seq, phaseAllGather, step, k), payload); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(sLo, step)

		var recvErr error
		for k, off := 0, rLo; off < rLo+m; k, off = k+1, off+chunk {
			end := min(off+chunk, rLo+m)
			msg, err := g.tr.Recv(prev, key, tag(seq, phaseAllGather, step, k))
			if err != nil {
				recvErr = err
				break
			}
			if msg.DType() != in.DType() || msg.NumElements() != end-off {
				recvErr = fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
					key, prev, msg.DType(), msg.Shape(), end-off, in.DType())
				break
			}
			copy(data[off:end], sl.data(msg))
			tensor.Recycle(msg)
		}
		if err := <-errc; err != nil {
			return nil, g.fatal(err)
		}
		if recvErr != nil {
			return nil, g.fatal(recvErr)
		}
	}
	return out, nil
}

// Broadcast replicates root's tensor to every rank. The default algorithm
// is the binomial tree (depth ⌈log2 p⌉, chunks pipelined down the levels);
// Options.Algorithm "ring" selects the chunk relay around the ring, whose
// p−1 hop latency only pays off when per-hop forwarding fully overlaps on
// real NICs. Non-root ranks may pass t == nil; the broadcast carries dtype
// and shape. The algorithm cannot be picked per call by payload size: only
// the root knows the size before the first message, and the two algorithms
// give every rank a different parent to listen to.
func (g *Group) Broadcast(key string, t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("collective: broadcast root %d out of %d", root, p)
	}
	if r == root && t == nil {
		return nil, fmt.Errorf("collective: broadcast root needs a tensor")
	}
	if p == 1 {
		return t.Clone(), nil
	}
	seq := g.nextSeq(key)
	if g.opts.Algorithm != AlgoRing {
		return g.treeBroadcast(key, seq, t, root)
	}
	return g.ringBroadcast(key, seq, t, root)
}

// ringBroadcast relays chunks around the ring so downstream forwarding
// overlaps upstream reception.
func (g *Group) ringBroadcast(key string, seq uint64, t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	next, prev := (r+1)%p, (r-1+p)%p

	if r == root {
		// Header: dtype + shape, then the flat payload in chunks.
		if err := g.tr.Send(next, key, tag(seq, phaseBroadcast, 0, 0), broadcastHeader(t)); err != nil {
			return nil, g.fatal(err)
		}
		flat, err := t.Reshape(t.NumElements())
		if err != nil {
			return nil, g.fatal(err)
		}
		chunk := g.chunkElems(t.DType())
		n := t.NumElements()
		for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
			end := min(off+chunk, n)
			piece, err := sliceFlat(flat, off, end)
			if err != nil {
				return nil, g.fatal(err)
			}
			if err := g.tr.Send(next, key, tag(seq, phaseBroadcast, 1, k), piece); err != nil {
				return nil, g.fatal(err)
			}
		}
		return t.Clone(), nil
	}

	hdrT, err := g.tr.Recv(prev, key, tag(seq, phaseBroadcast, 0, 0))
	if err != nil {
		return nil, g.fatal(err)
	}
	out, err := tensorFromBroadcastHeader(key, hdrT)
	if err != nil {
		return nil, g.fatal(err)
	}
	forward := next != root
	if forward {
		if err := g.tr.Send(next, key, tag(seq, phaseBroadcast, 0, 0), hdrT); err != nil {
			return nil, g.fatal(err)
		}
	}
	// Send consumes its payload before returning, so the header (and below,
	// each relayed chunk) can go back to the pool once forwarded.
	tensor.Recycle(hdrT)
	dt := out.DType()
	flat, err := out.Reshape(out.NumElements())
	if err != nil {
		return nil, g.fatal(err)
	}
	chunk := g.chunkElems(dt)
	n := out.NumElements()
	for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
		end := min(off+chunk, n)
		msg, err := g.tr.Recv(prev, key, tag(seq, phaseBroadcast, 1, k))
		if err != nil {
			return nil, g.fatal(err)
		}
		if msg.DType() != dt || msg.NumElements() != end-off {
			return nil, g.fatal(fmt.Errorf("collective: %q: broadcast chunk %d has %v%v, want %d %v elements",
				key, k, msg.DType(), msg.Shape(), end-off, dt))
		}
		if err := copyFlat(flat, off, msg); err != nil {
			return nil, g.fatal(err)
		}
		if forward {
			if err := g.tr.Send(next, key, tag(seq, phaseBroadcast, 1, k), msg); err != nil {
				return nil, g.fatal(err)
			}
		}
		tensor.Recycle(msg)
	}
	return out, nil
}

// Barrier blocks until every rank has entered. It rides an allreduce over a
// p-element vector so every ring segment is non-empty and each rank's exit
// transitively depends on every other rank's entry.
func (g *Group) Barrier(key string) error {
	token := tensor.New(tensor.Int64, g.Size())
	token.I64()[g.Rank()] = 1
	_, err := g.AllReduce(key, token, OpSum)
	return err
}

// NaiveAllReduce is the gather-to-root baseline the paper's parameter-server
// formulation amounts to: every rank ships its whole tensor to rank 0, which
// reduces serially in rank order and broadcasts the result back. It is both
// the semantic reference for the ring (left-fold in rank order) and the
// bandwidth strawman BenchmarkNaiveAllReduce measures.
func (g *Group) NaiveAllReduce(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	start := time.Now()
	span := telemetry.StartRoot("collective_allreduce")
	span.Arg("algo", "naive").Arg("key", key)
	defer span.End()
	out, err := g.naiveAllReduce(key, t, op)
	if err == nil {
		m := mAllReduce["naive"]
		m.ops.Inc()
		m.bytes.Add(t.ByteSize())
		m.secs.ObserveSince(start)
	}
	return out, err
}

func (g *Group) naiveAllReduce(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	if p == 1 {
		return t.Clone(), nil
	}
	seq := g.nextSeq(key)
	if r != 0 {
		if err := g.tr.Send(0, key, tag(seq, phaseGather, r, 0), t); err != nil {
			return nil, g.fatal(err)
		}
		out, err := g.tr.Recv(0, key, tag(seq, phaseBroadcast, r, 0))
		if err != nil {
			return nil, g.fatal(err)
		}
		return out, nil
	}
	acc := t.Clone()
	for from := 1; from < p; from++ {
		msg, err := g.tr.Recv(from, key, tag(seq, phaseGather, from, 0))
		if err != nil {
			return nil, g.fatal(err)
		}
		if err := reduceTensor(acc, msg, op); err != nil {
			return nil, g.fatal(err)
		}
		tensor.Recycle(msg)
	}
	for to := 1; to < p; to++ {
		if err := g.tr.Send(to, key, tag(seq, phaseBroadcast, to, 0), acc); err != nil {
			return nil, g.fatal(err)
		}
	}
	return acc, nil
}

// reduceTensor folds src into dst element-wise — serially, on the calling
// goroutine: this is the gather-to-root strawman, whose root does all the
// arithmetic itself while p−1 peers wait.
func reduceTensor(dst, src *tensor.Tensor, op string) error {
	if dst.DType() != src.DType() || dst.NumElements() != src.NumElements() {
		return fmt.Errorf("collective: reduce mismatch: %v%v vs %v%v",
			dst.DType(), dst.Shape(), src.DType(), src.Shape())
	}
	switch dst.DType() {
	case tensor.Float32:
		return serialReduce(dst.F32(), src.F32(), op)
	case tensor.Float64:
		return serialReduce(dst.F64(), src.F64(), op)
	case tensor.Int32:
		return serialReduce(dst.I32(), src.I32(), op)
	case tensor.Int64:
		return serialReduce(dst.I64(), src.I64(), op)
	}
	return fmt.Errorf("collective: reduce does not support dtype %v", dst.DType())
}

func serialReduce[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](dst, src []T, op string) error {
	switch op {
	case "", OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		return fmt.Errorf("collective: unknown reduction op %q (want sum|max)", op)
	}
	return nil
}

// sliceFlat copies [lo,hi) of a rank-1 tensor into a fresh tensor.
func sliceFlat(flat *tensor.Tensor, lo, hi int) (*tensor.Tensor, error) {
	out := tensor.New(flat.DType(), hi-lo)
	if err := copyFlatRange(out, 0, flat, lo, hi); err != nil {
		return nil, err
	}
	return out, nil
}

// copyFlat copies all of src into flat at offset off.
func copyFlat(flat *tensor.Tensor, off int, src *tensor.Tensor) error {
	return copyFlatRange(flat, off, src, 0, src.NumElements())
}

func copyFlatRange(dst *tensor.Tensor, dOff int, src *tensor.Tensor, lo, hi int) error {
	if dst.DType() != src.DType() {
		return fmt.Errorf("collective: dtype mismatch %v vs %v", dst.DType(), src.DType())
	}
	switch dst.DType() {
	case tensor.Float32:
		copy(dst.F32()[dOff:], src.F32()[lo:hi])
	case tensor.Float64:
		copy(dst.F64()[dOff:], src.F64()[lo:hi])
	case tensor.Complex64:
		copy(dst.C64()[dOff:], src.C64()[lo:hi])
	case tensor.Complex128:
		copy(dst.C128()[dOff:], src.C128()[lo:hi])
	case tensor.Int32:
		copy(dst.I32()[dOff:], src.I32()[lo:hi])
	case tensor.Int64:
		copy(dst.I64()[dOff:], src.I64()[lo:hi])
	case tensor.Bool:
		copy(dst.Bools()[dOff:], src.Bools()[lo:hi])
	default:
		return fmt.Errorf("collective: cannot copy dtype %v", dst.DType())
	}
	return nil
}
