package generate

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Options tune one engine.
type Options struct {
	// MaxSlots is the in-flight batch width: the number of sequences
	// decoding concurrently, and the number of preallocated state buffers
	// (default 8).
	MaxSlots int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 64).
	QueueDepth int
	// TokenWindow is the per-sequence streaming buffer. A consumer that
	// falls this many tokens behind stalls its own slot until it reads
	// again (default 32).
	TokenWindow int
	// MaxTokens caps any sequence's token budget; requests asking for more
	// (or for nothing) are clamped to it (default 4096).
	MaxTokens int
	// DefaultDeadline bounds queue wait for requests carrying no deadline:
	// a request not decoding by then expires (default 1s).
	DefaultDeadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSlots <= 0 {
		o.MaxSlots = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.TokenWindow <= 0 {
		o.TokenWindow = 32
	}
	if o.MaxTokens <= 0 {
		o.MaxTokens = 4096
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Second
	}
	return o
}

// Request asks for one generated sequence.
type Request struct {
	// Prompt initializes the sequence state; its length must equal the
	// model's feature width.
	Prompt []float64
	// MaxTokens is the token budget; <=0 takes the engine cap.
	MaxTokens int
	// StopBelow, when positive, is the EOS condition: generation stops at
	// the first token with |token| < StopBelow.
	StopBelow float64
	// Deadline bounds time-to-first-token (admission); zero applies the
	// engine default. It does not bound the stream once decoding starts.
	Deadline time.Time
}

// Sequence is one admitted request's stream handle. It implements Stream.
// One consumer at a time; Cancel is safe from any goroutine.
type Sequence struct {
	eng       *Engine
	tokens    chan Token
	cancelled atomic.Bool

	// Request, frozen at Submit.
	prompt    []float64
	maxTokens int
	stopBelow float64
	deadline  time.Time
	enq       time.Time

	// Decode-loop-owned.
	emitted  int
	lastEmit time.Time

	// Written by the loop before tokens closes; readable after Next
	// returns false (the channel close orders the write).
	finish FinishReason
	err    error
}

// Next blocks for the next token; false means the sequence finished.
// Consuming a token opens window room, so it also wakes a stalled slot.
func (s *Sequence) Next() (Token, bool) {
	t, ok := <-s.tokens
	if ok {
		s.eng.wakeLoop()
	}
	return t, ok
}

// Buffered reports how many tokens Next can return without blocking.
func (s *Sequence) Buffered() int { return len(s.tokens) }

// Finish reports why the sequence ended; valid once Next returned false.
func (s *Sequence) Finish() (FinishReason, error) { return s.finish, s.err }

// Cancel asks the engine to stop the sequence; its slot frees at the next
// decode step (even if the consumer never reads another token).
func (s *Sequence) Cancel() {
	if s.cancelled.CompareAndSwap(false, true) {
		s.eng.wakeLoop()
	}
}

// slot is one reusable per-sequence state buffer.
type slot struct {
	h   []float64
	seq *Sequence
}

// Stats is an engine's counter snapshot (the /statsz view; /metricz carries
// the process-global sums).
type Stats struct {
	Model     string `json:"model"`
	Slots     int    `json:"slots"`
	Active    int64  `json:"active"`
	Queued    int64  `json:"queued"`
	Sequences int64  `json:"sequences"`
	Tokens    int64  `json:"tokens"`
	Rejected  int64  `json:"rejected"`
	Expired   int64  `json:"expired"`
	Cancelled int64  `json:"cancelled"`
	Stalls    int64  `json:"stalls"`
	// SlotLeaks counts free-list/active bookkeeping mismatches. It is an
	// invariant: anything other than exactly zero is an engine bug.
	SlotLeaks int64  `json:"slot_leaks"`
	Steps     uint64 `json:"steps"`
}

// Engine runs the continuous-batching decode loop for one model.
type Engine struct {
	model *Model
	opts  Options

	admit chan *Sequence
	wake  chan struct{}
	quit  chan struct{}
	done  chan struct{}

	closeMu sync.RWMutex
	closed  bool

	// Decode-loop-owned.
	slots  []slot
	free   []int
	active int

	steps      atomic.Uint64
	gActive    atomic.Int64
	gQueued    atomic.Int64
	cSequences atomic.Int64
	cTokens    atomic.Int64
	cRejected  atomic.Int64
	cExpired   atomic.Int64
	cCancelled atomic.Int64
	cStalls    atomic.Int64
	cLeaks     atomic.Int64
}

// NewEngine starts the decode loop over MaxSlots preallocated state
// buffers. Close releases it.
func NewEngine(m *Model, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		model: m,
		opts:  opts,
		admit: make(chan *Sequence, opts.QueueDepth),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		slots: make([]slot, opts.MaxSlots),
		free:  make([]int, 0, opts.MaxSlots),
	}
	for i := range e.slots {
		e.slots[i].h = make([]float64, m.Features())
		e.free = append(e.free, i)
	}
	go e.run()
	return e
}

// Model returns the served model.
func (e *Engine) Model() *Model { return e.model }

// Steps returns the global decode-step counter.
func (e *Engine) Steps() uint64 { return e.steps.Load() }

// SlotsInUse returns the number of occupied slots.
func (e *Engine) SlotsInUse() int64 { return e.gActive.Load() }

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Model:     e.model.Name(),
		Slots:     e.opts.MaxSlots,
		Active:    e.gActive.Load(),
		Queued:    e.gQueued.Load(),
		Sequences: e.cSequences.Load(),
		Tokens:    e.cTokens.Load(),
		Rejected:  e.cRejected.Load(),
		Expired:   e.cExpired.Load(),
		Cancelled: e.cCancelled.Load(),
		Stalls:    e.cStalls.Load(),
		SlotLeaks: e.cLeaks.Load(),
		Steps:     e.steps.Load(),
	}
}

// Submit validates and enqueues one request: reject (full queue) beats
// queue beats expire, exactly like the predict batcher. The returned
// Sequence streams tokens as the decode loop reaches it.
func (e *Engine) Submit(req Request) (*Sequence, error) {
	if len(req.Prompt) != e.model.Features() {
		return nil, fmt.Errorf("%w: prompt has %d features, model %q wants %d",
			ErrBadRequest, len(req.Prompt), e.model.Name(), e.model.Features())
	}
	maxTokens := req.MaxTokens
	if maxTokens <= 0 || maxTokens > e.opts.MaxTokens {
		maxTokens = e.opts.MaxTokens
	}
	deadline := req.Deadline
	if deadline.IsZero() {
		deadline = time.Now().Add(e.opts.DefaultDeadline)
	}
	s := &Sequence{
		eng:       e,
		tokens:    make(chan Token, e.opts.TokenWindow),
		prompt:    append([]float64(nil), req.Prompt...),
		maxTokens: maxTokens,
		stopBelow: req.StopBelow,
		deadline:  deadline,
		enq:       time.Now(),
	}
	// The read lock orders Submit against Close: once Close flips the flag
	// no new sequence can enter the queue, so the post-loop drain is
	// complete and every admitted sequence is always answered.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	select {
	case e.admit <- s:
		e.cSequences.Add(1)
		e.gQueued.Add(1)
		mSequences.Inc()
		mQueueDepth.Add(1)
		e.wakeLoop()
		return s, nil
	default:
		e.cRejected.Add(1)
		mRejected.Inc()
		return nil, ErrOverloaded
	}
}

// Close stops the decode loop; in-flight and queued sequences finish with
// FinishClosed/ErrClosed. Idempotent.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.closeMu.Unlock()
	close(e.quit)
	<-e.done
	// The loop is gone and Submit is fenced off: drain the queue.
	for {
		select {
		case s := <-e.admit:
			e.noteDequeued()
			e.finishSeq(s, FinishClosed, ErrClosed)
		default:
			return
		}
	}
}

// wakeLoop nudges the decode loop without blocking or allocating.
func (e *Engine) wakeLoop() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// run is the decode loop: admit into free slots, step the batch, block only
// when there is genuinely nothing to do (no active unstalled slot, nothing
// admissible).
func (e *Engine) run() {
	defer close(e.done)
	for {
		select {
		case <-e.quit:
			e.finishActive()
			return
		default:
		}
		e.admitReady()
		progressed := false
		if e.active > 0 {
			progressed = e.stepOnce()
		}
		if progressed {
			continue
		}
		// Idle, or every active slot stalled on its token window. Receiving
		// from admit is only armed while a slot is free — a queued request
		// must keep its queue position (and its expiry answer) rather than
		// being pulled out with nowhere to go.
		admitCh := e.admit
		if len(e.free) == 0 {
			admitCh = nil
		}
		select {
		case <-e.quit:
			e.finishActive()
			return
		case <-e.wake:
		case s := <-admitCh:
			e.noteDequeued()
			e.place(s)
		}
	}
}

// admitReady moves queued requests into free slots — called at every step
// boundary, which is what makes the batching continuous.
func (e *Engine) admitReady() {
	for len(e.free) > 0 {
		select {
		case s := <-e.admit:
			e.noteDequeued()
			e.place(s)
		default:
			return
		}
	}
}

func (e *Engine) noteDequeued() {
	e.gQueued.Add(-1)
	mQueueDepth.Add(-1)
}

// place assigns a dequeued request to a free slot — unless it was cancelled
// or expired while queued, which answers it without consuming one.
func (e *Engine) place(s *Sequence) {
	if s.cancelled.Load() {
		e.cCancelled.Add(1)
		mCancelled.Inc()
		e.finishSeq(s, FinishCancelled, nil)
		return
	}
	if time.Now().After(s.deadline) {
		e.cExpired.Add(1)
		mExpired.Inc()
		e.finishSeq(s, FinishExpired, ErrDeadline)
		return
	}
	i := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	sl := &e.slots[i]
	copy(sl.h, s.prompt)
	sl.seq = s
	e.active++
	e.gActive.Add(1)
	mInflight.Add(1)
	mSlotsInUse.Add(1)
}

// stepOnce advances every active, unstalled slot by one token. Returns
// whether anything moved. Allocation-free.
func (e *Engine) stepOnce() bool {
	step := e.steps.Add(1)
	progressed := false
	occupied := 0
	for i := range e.slots {
		sl := &e.slots[i]
		s := sl.seq
		if s == nil {
			continue
		}
		occupied++
		if s.cancelled.Load() {
			// Checked before the stall skip: a cancelled consumer has
			// stopped reading, and its full window must not pin the slot.
			e.cCancelled.Add(1)
			mCancelled.Inc()
			e.freeSlot(i, FinishCancelled, nil)
			progressed = true
			continue
		}
		if len(s.tokens) == cap(s.tokens) {
			e.cStalls.Add(1)
			mStalls.Inc()
			continue
		}
		y := e.model.Step(sl.h)
		s.tokens <- Token{Index: s.emitted, Value: y, Step: step}
		now := time.Now()
		if s.emitted == 0 {
			mTTFT.ObserveSince(s.enq)
		} else {
			mInterToken.ObserveSince(s.lastEmit)
		}
		s.lastEmit = now
		s.emitted++
		e.cTokens.Add(1)
		mTokens.Inc()
		progressed = true
		switch {
		case s.stopBelow > 0 && math.Abs(y) < s.stopBelow:
			e.freeSlot(i, FinishEOS, nil)
		case s.emitted >= s.maxTokens:
			e.freeSlot(i, FinishLength, nil)
		}
	}
	if progressed {
		mStepSlots.Observe(float64(occupied))
	}
	return progressed
}

// freeSlot reclaims slot i onto the free list (no allocation — the list's
// backing array is preallocated at MaxSlots) and finishes its sequence.
// The bookkeeping invariant is self-checked; a violation is counted on the
// slot-leak counter CI asserts to be exactly zero.
func (e *Engine) freeSlot(i int, reason FinishReason, err error) {
	sl := &e.slots[i]
	s := sl.seq
	sl.seq = nil
	e.free = append(e.free, i)
	e.active--
	e.gActive.Add(-1)
	mInflight.Add(-1)
	mSlotsInUse.Add(-1)
	if e.active != e.opts.MaxSlots-len(e.free) || e.active < 0 {
		e.cLeaks.Add(1)
		mSlotLeaks.Inc()
	}
	e.finishSeq(s, reason, err)
}

// finishSeq publishes a sequence's outcome: the channel close orders the
// finish/err writes for the consumer.
func (e *Engine) finishSeq(s *Sequence, reason FinishReason, err error) {
	s.finish = reason
	s.err = err
	close(s.tokens)
}

// finishActive ends every in-flight sequence at shutdown.
func (e *Engine) finishActive() {
	for i := range e.slots {
		if e.slots[i].seq != nil {
			e.freeSlot(i, FinishClosed, ErrClosed)
		}
	}
}
