package serving

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// BatchOptions tune one model's micro-batcher and admission control.
type BatchOptions struct {
	// MaxBatch is the largest batch one session run serves (default 32).
	// 1 disables coalescing.
	MaxBatch int
	// QueueDepth bounds the admission queue; enqueues beyond it are
	// rejected immediately with ErrOverloaded (default 1024).
	QueueDepth int
	// Runners is the number of concurrent batch executors (default 2):
	// rows queue, and so coalesce, only while all of them are busy.
	Runners int
	// DefaultDeadline applies to requests that carry none (default 1s).
	DefaultDeadline time.Duration
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.Runners <= 0 {
		o.Runners = 2
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Second
	}
	return o
}

// request is one row's envelope.
type request struct {
	row      *tensor.Tensor // [features]
	deadline time.Time
	enq      time.Time     // when the row was admitted
	resp     chan *request // its call's channel
	lead     bool          // this delivery on resp is a runner slot, not an answer: lead a batch from this row
	out      *tensor.Tensor
	err      error
}

// answer resolves r and wakes its caller.
func (r *request) answer(out *tensor.Tensor, err error) {
	r.out, r.err = out, err
	r.resp <- r
}

// call is one Predict in flight — its rows' envelopes, the channel they come
// back on, the deadline timer, the batch slice it seals when it leads —
// recycled once every row is resolved.
type call struct {
	reqs  []request
	resp  chan *request // cap >= len(reqs): a row is delivered at most once at a time, so no send blocks
	timer *time.Timer
	batch []*request // a call leads at most one batch at a time, on its own goroutine
}

// callPool is a plain-mutex free list, like the tensor pool's: a sync.Pool
// drops Puts at random under the race detector, where the streaming
// predict's allocation gate runs too. Calls over maxPooledCallRows rows are
// left to the GC.
var callPool struct {
	sync.Mutex
	free []*call
}

const maxPooledCalls, maxPooledCallRows = 256, 1024

func newCall(n int) *call {
	var c *call
	callPool.Lock()
	if k := len(callPool.free) - 1; k >= 0 {
		c, callPool.free[k] = callPool.free[k], nil
		callPool.free = callPool.free[:k]
	} else {
		c = new(call)
	}
	callPool.Unlock()
	if cap(c.reqs) < n {
		c.reqs, c.resp = make([]request, n), make(chan *request, n)
	}
	c.reqs = c.reqs[:n]
	return c
}

func (c *call) recycle() {
	clear(c.reqs) // drop the tensor refs
	callPool.Lock()
	if len(callPool.free) < maxPooledCalls && cap(c.reqs) <= maxPooledCallRows {
		callPool.free = append(callPool.free, c)
	}
	callPool.Unlock()
}

// Batcher coalesces single-row predictions for one model into batched
// session runs on its callers' goroutines — it owns none. A Predict that
// finds a runner slot free leads: it runs a batch of itself plus whatever is
// queued, then hands the slot to the head of the queue or frees it; one that
// finds every slot taken queues. Batches so form only while every runner is
// busy, and an idle service answers a lone row at once. Admission is reject
// > queue > time out: a full queue rejects instantly, and a row whose
// deadline passes in the queue is never run.
type Batcher struct {
	reg   *Registry
	model string
	opts  BatchOptions
	stats *Stats

	mu      sync.Mutex
	queue   []*request // admitted rows waiting for a leader, FIFO, at most QueueDepth
	running int        // runner slots held by leaders, at most Runners
	closed  bool
	idle    *sync.Cond // Close waits here for running == 0
}

// NewBatcher returns a batcher over the registry's named model.
func NewBatcher(reg *Registry, model string, opts BatchOptions) *Batcher {
	b := &Batcher{reg: reg, model: model, opts: opts.withDefaults(), stats: &Stats{}}
	b.idle = sync.NewCond(&b.mu)
	return b
}

// Stats returns the model's live counters.
func (b *Batcher) Stats() *Stats { return b.stats }

// Pending is the current admission-queue depth.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Close refuses new rows and returns once every admitted one is answered.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	for b.running > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// Predict serves one row (shape [features]) through the batcher, blocking
// until the prediction, the deadline (zero = DefaultDeadline from now), or
// rejection.
func (b *Batcher) Predict(row *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	c := newCall(1)
	defer c.recycle()
	c.reqs[0].row = row
	b.serve(c, deadline)
	return c.reqs[0].out, c.reqs[0].err
}

// serve admits c's rows in order under one lock acquisition and returns
// when each is resolved. Every outcome is counted exactly once: rejected at
// admission, expired at the deadline, errored, or ok.
func (b *Batcher) serve(c *call, deadline time.Time) {
	now := time.Now()
	if deadline.IsZero() {
		deadline = now.Add(b.opts.DefaultDeadline)
	}
	for i := range c.reqs {
		r := &c.reqs[i]
		r.deadline, r.enq, r.resp = deadline, now, c.resp
	}

	var own *request
	rest := c.reqs
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		for i := range rest {
			rest[i].err = ErrClosed
		}
		return
	}
	if b.running < b.opts.Runners { // a free slot means an empty queue: lead
		b.running++
		own, rest = &rest[0], rest[1:]
	}
	queued := min(len(rest), b.opts.QueueDepth-len(b.queue))
	for i := range rest[:queued] {
		b.queue = append(b.queue, &rest[i])
	}
	mBatchQueueDepth.Add(int64(queued))
	b.mu.Unlock()
	if rejected := rest[queued:]; len(rejected) > 0 {
		for i := range rejected {
			rejected[i].err = ErrOverloaded
		}
		b.stats.rejected.Add(int64(len(rejected)))
		mBatchRejected.Add(int64(len(rejected)))
	}

	unresolved := queued
	var expire <-chan time.Time // a leader that queued nothing arms no timer
	if own != nil {
		unresolved++
		b.lead(c, own)
	}
	if queued > 0 {
		if d := time.Until(deadline); c.timer == nil {
			c.timer = time.NewTimer(d)
		} else {
			c.timer.Reset(d)
		}
		defer c.timer.Stop() // go >= 1.23 timers: nothing stale is left in C for the next Reset
		expire = c.timer.C
	}
	for unresolved > 0 {
		select {
		case r := <-c.resp:
			if r.lead {
				r.lead = false
				b.lead(c, r)
				continue
			}
			unresolved--
			switch r.err {
			case nil:
			case ErrDeadline:
				b.stats.expired.Add(1)
				mBatchExpired.Inc()
			default:
				b.stats.errs.Add(1)
				mBatchErrors.Inc()
			}
		case <-expire:
			unresolved -= b.expire(c)
			expire = nil
		}
	}
}

// expire removes c's rows that are still queued — they are never run — and
// returns how many. A row already sealed or promoted is on its way back and
// must still be received: a promoted row has to lead, or its slot is lost.
func (b *Batcher) expire(c *call) int {
	b.mu.Lock()
	admitted := len(b.queue)
	b.queue = slices.DeleteFunc(b.queue, func(r *request) bool {
		if r.resp != c.resp {
			return false
		}
		r.err = ErrDeadline
		return true
	})
	n := admitted - len(b.queue)
	mBatchQueueDepth.Add(int64(-n))
	b.mu.Unlock()
	b.stats.expired.Add(int64(n))
	mBatchExpired.Add(int64(n))
	wait := time.Since(c.reqs[0].enq).Seconds()
	for range n {
		mBatchQueueWait.Observe(wait)
	}
	return n
}

// lead runs one batch on the goroutine of own's call c — own, then up to
// MaxBatch-1 rows off the head of the queue — and passes the slot on.
func (b *Batcher) lead(c *call, own *request) {
	mv, err := b.reg.acquireRef(b.model)

	b.mu.Lock()
	if 1+len(b.queue) < b.opts.MaxBatch {
		// Whoever runs first after a flush — the promoted leader, or the
		// first client back — would otherwise seal before any other runnable
		// client has had the processor, and under load batches collapse to
		// one row. One yield lets goroutines already runnable with a row in
		// hand queue it; on an idle service it returns at once.
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	k := min(len(b.queue), b.opts.MaxBatch-1)
	batch := append(append(c.batch[:0], own), b.queue[:k]...)
	b.queue = slices.Delete(b.queue, 0, k)
	mBatchQueueDepth.Add(int64(-k))
	b.mu.Unlock()
	now := time.Now()
	for _, r := range batch {
		mBatchQueueWait.Observe(now.Sub(r.enq).Seconds())
	}

	if err != nil {
		fail(batch, err)
	} else {
		b.flush(mv, batch, now)
		mv.release()
	}
	clear(batch)
	c.batch = batch[:0]

	var next *request
	b.mu.Lock()
	if len(b.queue) > 0 {
		next = b.queue[0]
		b.queue = slices.Delete(b.queue, 0, 1)
		mBatchQueueDepth.Add(-1)
	} else if b.running--; b.running == 0 {
		b.idle.Broadcast()
	}
	b.mu.Unlock()
	if next != nil {
		next.lead = true
		next.resp <- next
	}
}

// flush runs one sealed batch: expired and malformed rows are answered
// individually (they never poison their batch-mates); a lone row goes to
// the version's row kernel when it has one, anything else is stacked along
// the leading dimension and run as a single session run.
func (b *Batcher) flush(mv *ModelVersion, batch []*request, now time.Time) {
	span := telemetry.StartRoot("batcher_flush").Arg("model", b.model)
	defer span.End()

	sig := mv.sig
	live := batch[:0]
	for _, r := range batch {
		switch {
		case now.After(r.deadline):
			r.answer(nil, ErrDeadline)
		case r.row == nil || r.row.Rank() != 1 || r.row.Shape()[0] != sig.Features || !r.row.DType().IsFloat():
			r.answer(nil, fmt.Errorf("%w: want [%d] %v row, got %v %v",
				ErrBadInput, sig.Features, sig.DType, shapeOf(r.row), dtypeOf(r.row)))
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	if r := live[0]; len(live) == 1 && mv.rowKernel != nil && r.row.DType() == sig.DType {
		// A scalar answer comes from the tensor pool: the stream front
		// recycles it once encoded, so a lone streamed row allocates nothing.
		var out *tensor.Tensor
		if len(mv.rowOutShape) == 0 {
			out = tensor.GetPooledScalar(sig.DType)
		} else {
			out = tensor.New(sig.DType, mv.rowOutShape...)
		}
		mv.rowKernel(r.row, out)
		b.recordBatch(1)
		r.answer(out, nil)
		return
	}

	span.Arg("rows", strconv.Itoa(len(live)))
	out, err := mv.PredictContext(telemetry.ContextWith(context.Background(), span), stackRows(live, sig))
	if err == nil && (out.Rank() < 1 || out.Shape()[0] != len(live)) {
		err = fmt.Errorf("serving: model %s v%d returned %v for a %d-row batch",
			mv.model, mv.version, out.Shape(), len(live))
	}
	if err != nil {
		fail(live, err)
		return
	}
	b.recordBatch(len(live))
	for i, r := range live {
		r.answer(sliceRow(out, i), nil)
	}
}

// fail answers every row of batch with err.
func fail(batch []*request, err error) {
	for _, r := range batch {
		r.answer(nil, err)
	}
}

// recordBatch counts one executed batch of n rows.
func (b *Batcher) recordBatch(n int) {
	b.stats.recordBatch(n)
	mBatchBatches.Inc()
	mBatchRows.Add(int64(n))
	mBatchSizeRows.Observe(float64(n))
}

func dtypeOf(t *tensor.Tensor) tensor.DType {
	if t == nil {
		return tensor.Invalid
	}
	return t.DType()
}

// stackRows builds the [n, features] batch input from validated rows,
// converting each to the signature dtype (JSON traffic arrives float64
// regardless of the model's precision; the conversion is deterministic, so
// bitwise batched-vs-single parity holds).
func stackRows(live []*request, sig Signature) *tensor.Tensor {
	n, d := len(live), sig.Features
	switch sig.DType {
	case tensor.Float32:
		buf := make([]float32, n*d)
		for i, r := range live {
			dst := buf[i*d : (i+1)*d]
			if r.row.DType() == tensor.Float32 {
				copy(dst, r.row.F32())
			} else {
				for j, v := range r.row.F64() {
					dst[j] = float32(v)
				}
			}
		}
		return tensor.FromF32(tensor.Shape{n, d}, buf)
	default: // Float64 — signature dtypes are validated at load
		buf := make([]float64, n*d)
		for i, r := range live {
			dst := buf[i*d : (i+1)*d]
			if r.row.DType() == tensor.Float64 {
				copy(dst, r.row.F64())
			} else {
				for j, v := range r.row.F32() {
					dst[j] = float64(v)
				}
			}
		}
		return tensor.FromF64(tensor.Shape{n, d}, buf)
	}
}

// rowView is row i of a [n, features] float tensor as a [features] tensor
// sharing its storage.
func rowView(in *tensor.Tensor, i int) *tensor.Tensor {
	d := in.Shape()[1]
	if in.DType() == tensor.Float32 {
		return tensor.FromF32(tensor.Shape{d}, in.F32()[i*d:(i+1)*d])
	}
	return tensor.FromF64(tensor.Shape{d}, in.F64()[i*d:(i+1)*d])
}

// sliceRow extracts row i of a batched output (shape = out.Shape()[1:], so
// a [n] output yields scalars and [n, k] yields [k] vectors).
func sliceRow(out *tensor.Tensor, i int) *tensor.Tensor {
	rest := out.Shape()[1:].Clone()
	stride := rest.NumElements()
	lo, hi := i*stride, (i+1)*stride
	switch out.DType() {
	case tensor.Float32:
		return tensor.FromF32(rest, append([]float32(nil), out.F32()[lo:hi]...))
	default:
		return tensor.FromF64(rest, append([]float64(nil), out.F64()[lo:hi]...))
	}
}
