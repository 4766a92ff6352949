package generate

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func testModel(t *testing.T, d int) *Model {
	t.Helper()
	w := make([]float64, d)
	for i := range w {
		w[i] = 0.1 + 0.05*float64(i%7) // deliberately non-trivial, bounded
	}
	m, err := NewModel("test", w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randPrompt(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()*2 - 1
	}
	return p
}

func drain(s Stream) []float64 {
	var out []float64
	for {
		tok, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, tok.Value)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Continuous-batched decode must be bit-identical to sequential
// single-request decode, for every sequence in a concurrent batch.
func TestContinuousMatchesSequentialBitwise(t *testing.T) {
	const d = 24
	m := testModel(t, d)
	eng := NewEngine(m, Options{MaxSlots: 4, QueueDepth: 64, DefaultDeadline: 10 * time.Second})
	defer eng.Close()

	rng := rand.New(rand.NewSource(1))
	const n = 16
	prompts := make([][]float64, n)
	lens := make([]int, n)
	for i := range prompts {
		prompts[i] = randPrompt(rng, d)
		lens[i] = 5 + rng.Intn(80)
	}
	var wg sync.WaitGroup
	got := make([][]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := eng.Submit(Request{Prompt: prompts[i], MaxTokens: lens[i]})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			got[i] = drain(s)
			if reason, err := s.Finish(); reason != FinishLength || err != nil {
				t.Errorf("seq %d finished (%s, %v), want (length, nil)", i, reason, err)
			}
		}(i)
	}
	wg.Wait()
	for i := range prompts {
		want, _ := m.Reference(prompts[i], lens[i], 0)
		if !bitsEqual(got[i], want) {
			t.Fatalf("seq %d: continuous-batched decode diverged from sequential reference", i)
		}
	}
}

// The scheduler must admit a request into the in-flight batch mid-decode:
// sequence B, submitted while A is still emitting, gets tokens at decode
// steps strictly inside A's span — asserted on the Token.Step counter, not
// assumed from the design.
func TestRequestJoinsInFlightBatchMidDecode(t *testing.T) {
	const d = 16
	m := testModel(t, d)
	// A small token window lets A stall while we run B, guaranteeing A is
	// still in its slot (mid-decode) for B's whole lifetime.
	eng := NewEngine(m, Options{MaxSlots: 4, TokenWindow: 4, DefaultDeadline: 10 * time.Second})
	defer eng.Close()

	rng := rand.New(rand.NewSource(2))
	promptA, promptB := randPrompt(rng, d), randPrompt(rng, d)

	a, err := eng.Submit(Request{Prompt: promptA, MaxTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	firstA, ok := a.Next()
	if !ok {
		t.Fatal("A produced no token")
	}
	// A is now decoding (and will stall on its window). B joins.
	b, err := eng.Submit(Request{Prompt: promptB, MaxTokens: 40})
	if err != nil {
		t.Fatal(err)
	}
	var bTokens []Token
	for {
		tok, ok := b.Next()
		if !ok {
			break
		}
		bTokens = append(bTokens, tok)
	}
	// Now drain A; its remaining tokens carry steps after B's.
	aTokens := []Token{firstA}
	for {
		tok, ok := a.Next()
		if !ok {
			break
		}
		aTokens = append(aTokens, tok)
	}

	if bTokens[0].Step <= firstA.Step {
		t.Fatalf("B's first token step %d not after A started (step %d)", bTokens[0].Step, firstA.Step)
	}
	lastA := aTokens[len(aTokens)-1]
	if bTokens[0].Step >= lastA.Step {
		t.Fatalf("B (first step %d) never joined A's in-flight decode (A last step %d)", bTokens[0].Step, lastA.Step)
	}
	// Joining mid-batch must not perturb either sequence's bits.
	val := func(ts []Token) []float64 {
		out := make([]float64, len(ts))
		for i, tok := range ts {
			out[i] = tok.Value
		}
		return out
	}
	wantA, _ := m.Reference(promptA, 300, 0)
	wantB, _ := m.Reference(promptB, 40, 0)
	if !bitsEqual(val(aTokens), wantA) || !bitsEqual(val(bTokens), wantB) {
		t.Fatal("mid-decode join changed emitted bits")
	}
}

// A slow consumer stalls only its own slot: the rest of the batch keeps
// decoding, and the stalled sequence resumes when its consumer returns.
func TestBackpressureStallsOnlyTheSlowConsumer(t *testing.T) {
	const d = 8
	m := testModel(t, d)
	eng := NewEngine(m, Options{MaxSlots: 2, TokenWindow: 2, DefaultDeadline: 10 * time.Second})
	defer eng.Close()

	rng := rand.New(rand.NewSource(3))
	slowPrompt, fastPrompt := randPrompt(rng, d), randPrompt(rng, d)
	slow, err := eng.Submit(Request{Prompt: slowPrompt, MaxTokens: 50})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := eng.Submit(Request{Prompt: fastPrompt, MaxTokens: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Never touch `slow` yet: it may emit at most TokenWindow tokens.
	gotFast := drain(fast)
	wantFast, _ := m.Reference(fastPrompt, 50, 0)
	if !bitsEqual(gotFast, wantFast) {
		t.Fatal("fast sequence diverged while another slot was stalled")
	}
	if st := eng.Stats(); st.Stalls == 0 {
		t.Fatal("expected the stalled slot to be counted")
	}
	// The stalled sequence resumes and completes bit-exact.
	gotSlow := drain(slow)
	wantSlow, _ := m.Reference(slowPrompt, 50, 0)
	if !bitsEqual(gotSlow, wantSlow) {
		t.Fatal("stalled sequence diverged after resuming")
	}
}

// Admission follows the batcher contract: full queue rejects, queued
// requests expire at their deadline, and both outcomes are counted.
func TestAdmissionRejectAndExpire(t *testing.T) {
	const d = 8
	m := testModel(t, d)
	eng := NewEngine(m, Options{MaxSlots: 1, QueueDepth: 1, TokenWindow: 1, DefaultDeadline: 10 * time.Second})
	defer eng.Close()

	rng := rand.New(rand.NewSource(4))
	// Occupy the only slot with a sequence nobody consumes.
	blocker, err := eng.Submit(Request{Prompt: randPrompt(rng, d), MaxTokens: 1000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker to occupy the slot", func() bool { return eng.SlotsInUse() == 1 })

	// Fill the queue, then overflow it.
	queued, err := eng.Submit(Request{Prompt: randPrompt(rng, d), MaxTokens: 5,
		Deadline: time.Now().Add(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(Request{Prompt: randPrompt(rng, d), MaxTokens: 5}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit: got %v, want ErrOverloaded", err)
	}

	// Let the queued request's deadline lapse, then free the slot: it must
	// expire rather than decode.
	time.Sleep(80 * time.Millisecond)
	blocker.Cancel()
	if got := drain(queued); len(got) != 0 {
		t.Fatalf("expired request decoded %d tokens", len(got))
	}
	reason, ferr := queued.Finish()
	if reason != FinishExpired || !errors.Is(ferr, ErrDeadline) {
		t.Fatalf("queued request finished (%s, %v), want (expired, ErrDeadline)", reason, ferr)
	}
	drain(blocker)
	st := eng.Stats()
	if st.Rejected != 1 || st.Expired != 1 || st.Cancelled != 1 {
		t.Fatalf("counters rejected=%d expired=%d cancelled=%d, want 1/1/1", st.Rejected, st.Expired, st.Cancelled)
	}
	// A prompt of the wrong width is a bad request, not a crash.
	if _, err := eng.Submit(Request{Prompt: make([]float64, d+1)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad prompt: got %v, want ErrBadRequest", err)
	}
}

// Zero weights drive the first token to exactly 0, so StopBelow fires: the
// EOS path frees the slot after one token.
func TestStopConditionEOS(t *testing.T) {
	m, err := NewModel("eos", make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(m, Options{DefaultDeadline: 10 * time.Second})
	defer eng.Close()
	s, err := eng.Submit(Request{Prompt: make([]float64, 8), MaxTokens: 100, StopBelow: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(s)
	reason, ferr := s.Finish()
	if len(got) != 1 || got[0] != 0 || reason != FinishEOS || ferr != nil {
		t.Fatalf("eos decode: %d tokens, (%s, %v)", len(got), reason, ferr)
	}
	waitFor(t, "slot reclaim", func() bool { return eng.SlotsInUse() == 0 })
}

// Close answers everything: in-flight and queued sequences finish with
// FinishClosed/ErrClosed, later submits are refused, nothing hangs.
func TestCloseAnswersInFlightAndQueued(t *testing.T) {
	const d = 8
	m := testModel(t, d)
	eng := NewEngine(m, Options{MaxSlots: 1, QueueDepth: 4, TokenWindow: 1, DefaultDeadline: 10 * time.Second})
	rng := rand.New(rand.NewSource(5))
	var seqs []*Sequence
	for i := 0; i < 3; i++ {
		s, err := eng.Submit(Request{Prompt: randPrompt(rng, d), MaxTokens: 1000})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	eng.Close()
	for i, s := range seqs {
		drain(s)
		if reason, err := s.Finish(); reason != FinishClosed || !errors.Is(err, ErrClosed) {
			t.Fatalf("seq %d after close: (%s, %v)", i, reason, err)
		}
	}
	if _, err := eng.Submit(Request{Prompt: randPrompt(rng, d)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// Property test (run under -race in CI): random admit/cancel/EOS schedules
// never leak slots, never cross-contaminate per-sequence state (every
// consumed stream is a bit-exact prefix of its sequential reference), and
// the engine keeps serving afterwards.
func TestRandomScheduleNeverLeaksOrContaminates(t *testing.T) {
	const d = 12
	m := testModel(t, d)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(m, Options{MaxSlots: 3, QueueDepth: 128, TokenWindow: 4, DefaultDeadline: 10 * time.Second})
		const n = 32
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			prompt := randPrompt(rng, d)
			maxTok := 1 + rng.Intn(50)
			stopBelow := 0.0
			if rng.Intn(4) == 0 {
				stopBelow = 0.05 // sometimes EOS fires before the budget
			}
			cancelAfter := -1
			if rng.Intn(3) == 0 {
				cancelAfter = rng.Intn(maxTok)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := eng.Submit(Request{Prompt: prompt, MaxTokens: maxTok, StopBelow: stopBelow})
				if err != nil {
					t.Errorf("seed %d: submit: %v", seed, err)
					return
				}
				var got []float64
				for {
					tok, ok := s.Next()
					if !ok {
						break
					}
					got = append(got, tok.Value)
					if cancelAfter >= 0 && len(got) > cancelAfter {
						s.Cancel()
					}
				}
				want, wantReason := m.Reference(prompt, maxTok, stopBelow)
				if len(got) > len(want) {
					t.Errorf("seed %d: decoded %d tokens past the reference's %d", seed, len(got), len(want))
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("seed %d: token %d bits diverged (state cross-contamination)", seed, i)
						return
					}
				}
				if cancelAfter < 0 {
					reason, ferr := s.Finish()
					if len(got) != len(want) || reason != wantReason || ferr != nil {
						t.Errorf("seed %d: finished %d/%d tokens (%s, %v), want (%s, nil)",
							seed, len(got), len(want), reason, ferr, wantReason)
					}
				}
			}()
		}
		wg.Wait()
		waitFor(t, "all slots reclaimed", func() bool { return eng.SlotsInUse() == 0 })
		st := eng.Stats()
		if st.SlotLeaks != 0 {
			t.Fatalf("seed %d: %d slot leaks", seed, st.SlotLeaks)
		}
		if st.Queued != 0 {
			t.Fatalf("seed %d: %d requests stuck in queue", seed, st.Queued)
		}
		// Slots reclaimed by cancellation must be reusable, not poisoned.
		prompt := randPrompt(rng, d)
		s, err := eng.Submit(Request{Prompt: prompt, MaxTokens: 10})
		if err != nil {
			t.Fatalf("seed %d: post-schedule submit: %v", seed, err)
		}
		want, _ := m.Reference(prompt, 10, 0)
		if got := drain(s); !bitsEqual(got, want) {
			t.Fatalf("seed %d: reclaimed slot produced wrong bits", seed)
		}
		eng.Close()
	}
}

// The steady-state token hot path — step, emit, window bookkeeping, consume
// — allocates nothing, with one sequence in a half-empty batch and with the
// saturated batch BenchmarkGenerateDecode drives.
func TestSteadyStateDecodeAllocsZero(t *testing.T) {
	const d = 32
	for _, tc := range []struct{ slots, seqs int }{{2, 1}, {4, 4}} {
		m := testModel(t, d)
		eng := NewEngine(m, Options{MaxSlots: tc.slots, TokenWindow: 256, MaxTokens: 1 << 30, DefaultDeadline: time.Hour})
		rng := rand.New(rand.NewSource(6))
		seqs := make([]*Sequence, tc.seqs)
		for i := range seqs {
			s, err := eng.Submit(Request{Prompt: randPrompt(rng, d), MaxTokens: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			seqs[i] = s
		}
		next := func(n int) {
			for i := 0; i < n; i++ {
				for _, s := range seqs {
					if _, ok := s.Next(); !ok {
						t.Fatal("sequence ended early")
					}
				}
			}
		}
		// Warm the windows and the runtime's channel/timer caches.
		next(1024)
		if avg := testing.AllocsPerRun(200, func() { next(32) }); avg != 0 {
			t.Fatalf("%d of %d slots: steady-state decode allocates %v allocs/run", tc.seqs, tc.slots, avg)
		}
		for _, s := range seqs {
			s.Cancel()
			drain(s)
		}
		eng.Close()
	}
}
