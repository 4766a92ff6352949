package collective

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// FusionOptions tune a group's fusion buffer.
type FusionOptions struct {
	// FlushBytes triggers a fused pass once this many payload bytes are
	// pending. Default 64 KiB — comfortably inside the doubling regime, so
	// fused passes keep the latency-optimal algorithm.
	FlushBytes int64
	// FlushTensors triggers a fused pass once this many tensors are pending
	// (0 = no count trigger). Workloads that post a fixed set per step set
	// this to the set size for a deterministic, timer-free flush.
	FlushTensors int
	// FlushInterval is the deadline flush: whenever tensors are pending, a
	// pass fires at most this long after the first post — the guarantee
	// that a rank whose peers flushed early (byte threshold) joins their
	// negotiation instead of deadlocking them. Default 1ms.
	FlushInterval time.Duration
}

// DefaultFlushBytes and DefaultFlushInterval apply where FusionOptions
// leaves the zero value.
const (
	DefaultFlushBytes    = 64 << 10
	DefaultFlushInterval = time.Millisecond
)

// fusionReserved prefixes the buffer's internal negotiation and data keys;
// user collective keys must not start with it.
const fusionReserved = "\x00fuse/"

// fusionWaiter is one posted tensor: its identity, payload, and the channel
// its caller blocks on.
type fusionWaiter struct {
	key  string
	hash uint64
	t    *tensor.Tensor
	op   string
	done chan pendingResult
}

// Fusion is the Horovod-style tensor-fusion buffer: many goroutines post
// small allreduces (AllReduce blocks each poster), and a single flusher per
// rank coalesces them into one collective pass — one negotiation round that
// agrees on membership across ranks, then one packed allreduce per
// (dtype, op) bucket. Small-tensor workloads (per-parameter gradients) thus
// pay one log2(p)-step latency instead of one per tensor.
//
// Membership negotiation makes the buffer robust to timing skew: each round
// allgathers every rank's pending set and fuses exactly the tensors pending
// on all p ranks; stragglers stay buffered for the next round (armed by the
// deadline timer). The bulk-synchronous contract still applies in the
// large: every rank must eventually post the same tensors.
//
// Numerics: the fused pass reduces the packed payload with the same
// algorithm the unfused tensors would pick (small payloads → recursive
// doubling, whose combination tree depends only on p, not on element
// offset), so fused results are bit-identical to unfused ones — the
// property the core smoke leg (./smoke) asserts end-to-end on SGD weights.
type Fusion struct {
	g    *Group
	opts FusionOptions

	mu      sync.Mutex
	pending map[string]*fusionWaiter
	bytes   int64
	closed  error
	timer   *time.Timer
	started bool

	// roundMu serialises flush rounds: rounds are numbered by the reserved
	// keys' sequence counters, so every rank must run them one at a time.
	roundMu sync.Mutex
	kick    chan struct{}
	quit    chan struct{}
}

func newFusion(g *Group, opts FusionOptions) *Fusion {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = DefaultFlushBytes
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	return &Fusion{
		g:       g,
		opts:    opts,
		pending: make(map[string]*fusionWaiter),
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
}

func fusionHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func fusionOpCode(op string) (int64, error) {
	switch op {
	case "", OpSum:
		return 0, nil
	case OpMax:
		return 1, nil
	}
	return 0, fmt.Errorf("collective: unknown reduction op %q (want sum|max)", op)
}

func fusionOpName(code int64) string {
	if code == 1 {
		return OpMax
	}
	return OpSum
}

// AllReduce posts one tensor and blocks until the fused pass carrying it
// completes. Keys identify tensors across ranks (like plain collective
// keys); a key may not be re-posted while its previous post is pending.
func (f *Fusion) AllReduce(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	if _, err := fusionOpCode(op); err != nil {
		return nil, err
	}
	switch t.DType() {
	case tensor.Float32, tensor.Float64, tensor.Int32, tensor.Int64:
	default:
		return nil, fmt.Errorf("collective: fused allreduce does not support dtype %v", t.DType())
	}
	if f.g.Size() == 1 {
		return t.Clone(), nil
	}
	// Payloads at or above the picker threshold bypass the buffer (the
	// exact complement of the picker's strict-below doubling branch): they
	// are bandwidth-bound, so coalescing buys nothing, and reducing them
	// right here — through the same picker an unfused call would hit —
	// keeps the fused-equals-unfused bit-identity unconditional (the
	// buffered path below pins doubling, which only matches the unfused
	// choice for payloads under the threshold). Sizes agree across ranks
	// by the collective contract, so every rank takes the same branch.
	if t.ByteSize()/int64(f.g.Size()) >= int64(f.g.opts.SwitchBytes) {
		return f.g.AllReduce(key, t, op)
	}
	w := &fusionWaiter{key: key, hash: fusionHash(key), t: t, op: op, done: make(chan pendingResult, 1)}

	f.mu.Lock()
	if f.closed != nil {
		err := f.closed
		f.mu.Unlock()
		return nil, err
	}
	if _, dup := f.pending[key]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("collective: fusion key %q already pending (one post per key per pass)", key)
	}
	for _, other := range f.pending {
		if other.hash == w.hash {
			f.mu.Unlock()
			return nil, fmt.Errorf("collective: fusion keys %q and %q collide; rename one", other.key, key)
		}
	}
	if !f.started {
		f.started = true
		go f.flushLoop()
	}
	f.pending[key] = w
	f.bytes += t.ByteSize()
	mFusionPendingBytes.Add(t.ByteSize())
	byBytes := f.bytes >= f.opts.FlushBytes
	byCount := f.opts.FlushTensors > 0 && len(f.pending) >= f.opts.FlushTensors
	if f.timer == nil {
		f.timer = time.AfterFunc(f.opts.FlushInterval, f.timerFlush)
	}
	f.mu.Unlock()

	if byBytes || byCount {
		if byBytes {
			mFusionTriggerBytes.Inc()
		} else {
			mFusionTriggerCount.Inc()
		}
		f.kickFlush()
	}
	res := <-w.done
	return res.t, res.err
}

// Flush runs one fused pass synchronously — the flush-on-barrier policy.
// It must be called from a goroutine that has no post of its own blocked in
// AllReduce (the pass would wait for itself).
func (f *Fusion) Flush() {
	mFusionTriggerExplicit.Inc()
	f.flushRound()
}

// timerFlush is the deadline-expiry kick, counted under its own cause.
func (f *Fusion) timerFlush() {
	mFusionTriggerTimer.Inc()
	f.kickFlush()
}

// Close fails every pending waiter and rejects future posts. The group
// calls it on teardown; transport poisoning surfaces the same way.
func (f *Fusion) Close() {
	f.mu.Lock()
	if f.closed == nil {
		f.closed = fmt.Errorf("collective: fusion buffer closed")
	}
	err := f.closed
	waiters := f.pending
	f.pending = make(map[string]*fusionWaiter)
	mFusionPendingBytes.Add(-f.bytes)
	f.bytes = 0
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	started := f.started
	f.started = false
	f.mu.Unlock()
	if started {
		close(f.quit)
	}
	for _, w := range waiters {
		w.done <- pendingResult{nil, err}
	}
}

func (f *Fusion) kickFlush() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

func (f *Fusion) flushLoop() {
	for {
		select {
		case <-f.kick:
			f.flushRound()
		case <-f.quit:
			return
		}
	}
}

// fail delivers err to every pending waiter and closes the buffer: a failed
// negotiation or fused pass means the group's bulk-synchronous state is
// unrecoverable (the transport is already poisoned by Group.fatal).
func (f *Fusion) fail(err error) {
	f.mu.Lock()
	if f.closed == nil {
		f.closed = err
	}
	waiters := f.pending
	f.pending = make(map[string]*fusionWaiter)
	mFusionPendingBytes.Add(-f.bytes)
	f.bytes = 0
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	f.mu.Unlock()
	for _, w := range waiters {
		w.done <- pendingResult{nil, err}
	}
}

// flushRound is one fused pass: snapshot, negotiate membership, pack,
// reduce, unpack, deliver.
func (f *Fusion) flushRound() {
	f.roundMu.Lock()
	defer f.roundMu.Unlock()

	f.mu.Lock()
	if f.closed != nil || len(f.pending) == 0 {
		f.mu.Unlock()
		return
	}
	snapshot := make([]*fusionWaiter, 0, len(f.pending))
	for _, w := range f.pending {
		snapshot = append(snapshot, w)
	}
	// Disarm the deadline: it re-arms below if stragglers remain.
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	f.mu.Unlock()

	sort.Slice(snapshot, func(i, j int) bool { return snapshot[i].hash < snapshot[j].hash })

	span := telemetry.StartRoot("fusion_round")
	defer span.End()

	// Negotiation: allgather every rank's pending set as (hash, dtype,
	// elems, op) quadruples. Keys are unique per rank, so a quadruple seen
	// p times is pending everywhere and may fuse; the rest wait.
	neg := make([]int64, 0, 4*len(snapshot))
	for _, w := range snapshot {
		opCode, _ := fusionOpCode(w.op)
		neg = append(neg, int64(w.hash), int64(w.t.DType()), int64(w.t.NumElements()), opCode)
	}
	negSpan := span.Child("fusion_negotiate")
	all, err := f.g.AllGatherV(fusionReserved+"neg", tensor.FromI64(tensor.Shape{len(neg)}, neg))
	negSpan.End()
	if err != nil {
		f.fail(err)
		return
	}
	flat := all.I64()
	if len(flat)%4 != 0 {
		f.fail(fmt.Errorf("collective: malformed fusion negotiation payload"))
		return
	}
	counts := make(map[[4]int64]int, len(flat)/4)
	byHash := make(map[int64][4]int64, len(flat)/4)
	for i := 0; i+4 <= len(flat); i += 4 {
		var q [4]int64
		copy(q[:], flat[i:i+4])
		// Two quadruples sharing a key hash but disagreeing on dtype,
		// element count or op mean the ranks posted mismatched tensors
		// under one key (or, vanishingly, two keys collided): without this
		// check the members' counts never reach p and every rank would
		// re-negotiate on the deadline timer forever instead of surfacing
		// the misuse the way a plain AllReduce does.
		if prev, seen := byHash[q[0]]; seen && prev != q {
			f.fail(fmt.Errorf("collective: fusion key (hash %#x) posted with mismatched dtype/shape/op across ranks: (%v,%d,%s) vs (%v,%d,%s)",
				uint64(q[0]), tensor.DType(prev[1]), prev[2], fusionOpName(prev[3]),
				tensor.DType(q[1]), q[2], fusionOpName(q[3])))
			return
		}
		byHash[q[0]] = q
		counts[q]++
	}
	p := f.g.Size()
	var members []*fusionWaiter
	for _, w := range snapshot {
		opCode, _ := fusionOpCode(w.op)
		q := [4]int64{int64(w.hash), int64(w.t.DType()), int64(w.t.NumElements()), opCode}
		if counts[q] == p {
			members = append(members, w)
		}
	}
	if len(members) == 0 {
		f.rearmIfPending()
		return
	}
	var passBytes int64
	for _, w := range members {
		passBytes += w.t.ByteSize()
	}
	mFusionFlushBytes.Observe(float64(passBytes))
	mFusionFusedTensors.Add(int64(len(members)))

	// One packed allreduce per (dtype, op) bucket, buckets and members in
	// deterministic order so every rank issues identical collectives.
	type bucketKey struct {
		dt tensor.DType
		op string
	}
	buckets := make(map[bucketKey][]*fusionWaiter)
	var order []bucketKey
	for _, w := range members {
		bk := bucketKey{w.t.DType(), fusionOpName(mustOpCode(w.op))}
		if _, ok := buckets[bk]; !ok {
			order = append(order, bk)
		}
		buckets[bk] = append(buckets[bk], w)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dt != order[j].dt {
			return order[i].dt < order[j].dt
		}
		return order[i].op < order[j].op
	})

	for _, bk := range order {
		ws := buckets[bk]
		total := 0
		for _, w := range ws {
			total += w.t.NumElements()
		}
		packed := tensor.New(bk.dt, total)
		off := 0
		for _, w := range ws {
			_ = packed.Flat(off, off+w.t.NumElements()).CopyFrom(w.t) // one bucket, one dtype
			off += w.t.NumElements()
		}
		// The packed pass pins recursive doubling rather than going through
		// the picker: packing K small tensors can push the payload past the
		// ring threshold, and the ring's segment-dependent combination
		// order would silently break the fused-equals-unfused bit-identity
		// guarantee. Doubling's tree depends only on p, never on offset or
		// payload size, so pinning it preserves the contract at any pack
		// size — and the small-tensor regime the buffer exists for is
		// doubling territory anyway.
		red, err := f.g.AllReduceAlg(fmt.Sprintf("%sdata/%d/%s", fusionReserved, bk.dt, bk.op), packed, bk.op, AlgoDoubling)
		if err != nil {
			f.fail(err)
			return
		}
		off = 0
		for _, w := range ws {
			n := w.t.NumElements()
			out := tensor.New(bk.dt, w.t.Shape()...)
			_ = out.CopyFrom(red.Flat(off, off+n)) // w.t's n elements sit at off
			off += n
			f.mu.Lock()
			delete(f.pending, w.key)
			f.bytes -= w.t.ByteSize()
			mFusionPendingBytes.Add(-w.t.ByteSize())
			f.mu.Unlock()
			w.done <- pendingResult{out, nil}
		}
	}
	f.rearmIfPending()
}

// rearmIfPending re-arms the deadline timer when stragglers stayed behind,
// so the next negotiation round is guaranteed without another post.
func (f *Fusion) rearmIfPending() {
	f.mu.Lock()
	if f.closed == nil && len(f.pending) > 0 && f.timer == nil {
		f.timer = time.AfterFunc(f.opts.FlushInterval, f.timerFlush)
	}
	f.mu.Unlock()
}

func mustOpCode(op string) int64 {
	c, _ := fusionOpCode(op)
	return c
}
