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
	// Algorithm forces one allreduce algorithm ("ring", "doubling"); "" or
	// "auto" picks per call by payload size. It is for allreduce only:
	// Broadcast is always the binomial tree.
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

// NewLoopbackGroups is the single-call constructor for p ranks in this
// process, one group per rank: tests and the benchmark's probes use it, and
// of the applications only sgd.RunReal, whose replicas share one set of
// resources; every other driver runs over cluster tasks
// (cluster.Peers.OpenJob). Each rank gets its own Hub and the transport
// cluster tasks use, with a local edge into every rank's hub, its own
// included — a cluster whose peers are all co-located.
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

// number is the element types a reduction combines.
type number interface {
	~float32 | ~float64 | ~int32 | ~int64
}

// reduceGrain is the minimum per-chunk work before a reduction fans out
// across the gemm worker pool.
const reduceGrain = 1 << 13

func sumOf[T number](dst, a, b []T) {
	gemm.ParallelFor(len(dst), reduceGrain, func(lo, hi int) {
		d, x, y := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	})
}

func maxOf[T number](dst, a, b []T) {
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

// combiner is the fused ternary kernel dst[lo:hi] = a[lo:hi] ⊕ b over
// tensors of one dtype, b holding the hi−lo operand elements.
type combiner func(dst, a *tensor.Tensor, lo, hi int, b *tensor.Tensor)

// combiners holds each reducible dtype's sum and max combiners, built once
// so picking one per call allocates nothing.
var combiners = map[tensor.DType][2]combiner{
	tensor.Float32: typedCombiners((*tensor.Tensor).F32),
	tensor.Float64: typedCombiners((*tensor.Tensor).F64),
	tensor.Int32:   typedCombiners((*tensor.Tensor).I32),
	tensor.Int64:   typedCombiners((*tensor.Tensor).I64),
}

func typedCombiners[T number](data func(*tensor.Tensor) []T) [2]combiner {
	return [2]combiner{
		func(dst, a *tensor.Tensor, lo, hi int, b *tensor.Tensor) {
			sumOf(data(dst)[lo:hi], data(a)[lo:hi], data(b))
		},
		func(dst, a *tensor.Tensor, lo, hi int, b *tensor.Tensor) {
			maxOf(data(dst)[lo:hi], data(a)[lo:hi], data(b))
		},
	}
}

// combinerFor returns op's combiner for dt; only the real numeric dtypes
// reduce.
func combinerFor(dt tensor.DType, op string) (combiner, error) {
	c, ok := combiners[dt]
	if !ok {
		return nil, fmt.Errorf("collective: cannot reduce dtype %v", dt)
	}
	switch op {
	case "", OpSum:
		return c[0], nil
	case OpMax:
		return c[1], nil
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

func serialReduce[T number](dst, src []T, op string) error {
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
