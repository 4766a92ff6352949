package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

func genWeights(d int) *tensor.Tensor {
	w := make([]float64, d)
	for i := range w {
		w[i] = 0.1 + 0.05*float64(i%7)
	}
	return tensor.FromF64(tensor.Shape{d}, w)
}

func genPrompt(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()*2 - 1
	}
	return p
}

func genService(t testing.TB, d int) *Service {
	t.Helper()
	svc := NewService(NewRegistry(), BatchOptions{})
	// MaxTokens must exceed what TCP buffers can absorb: the disconnect and
	// cancel tests hold streams with a 1<<20 budget and need them to still be
	// decoding when the cancel lands, not finished into the socket buffer.
	if err := svc.ServeGenerative("gen", 3, genWeights(d), generate.Options{
		MaxSlots: 4, DefaultDeadline: 10 * time.Second, MaxTokens: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func genReference(d int, prompt []float64, maxTokens int) []float64 {
	m, _ := generate.NewModel("ref", genWeights(d).F64())
	out, _ := m.Reference(prompt, maxTokens, 0)
	return out
}

func TestServiceGenerateAndStatus(t *testing.T) {
	const d = 16
	svc := genService(t, d)
	if !svc.Ready() {
		t.Fatal("service with a generative model should be ready")
	}
	found := false
	for _, m := range svc.Models() {
		if m.Name == "gen" && m.Version == 3 && m.Ready {
			found = true
		}
	}
	if !found {
		t.Fatalf("generative model missing from Models(): %+v", svc.Models())
	}
	prompt := genPrompt(rand.New(rand.NewSource(1)), d)
	st, err := svc.Generate("gen", generate.Request{Prompt: prompt, MaxTokens: 20})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		tok, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, tok.Value)
	}
	want := genReference(d, prompt, 20)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("token %d diverged", i)
		}
	}
	buf, err := svc.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(buf, &payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload["generate"]; !ok {
		t.Fatalf("statsz payload missing generate section: %s", buf)
	}
	if _, err := svc.Generate("nope", generate.Request{Prompt: prompt}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model: got %v, want ErrNotFound", err)
	}
}

// sseTokens reads data: events off an SSE body, returning token values and
// steps plus the final event's raw JSON.
func sseTokens(t *testing.T, body *bufio.Reader) (vals []float64, steps []uint64, final map[string]any) {
	t.Helper()
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v (so far %d tokens)", err, len(vals))
		}
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Token  *float64 `json:"token"`
			Step   uint64   `json:"step"`
			Done   bool     `json:"done"`
			Reason string   `json:"finish_reason"`
			Tokens int      `json:"tokens"`
		}
		payload := strings.TrimPrefix(line, "data: ")
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatalf("sse event %q: %v", payload, err)
		}
		if ev.Done {
			final = map[string]any{"finish_reason": ev.Reason, "tokens": float64(ev.Tokens)}
			return vals, steps, final
		}
		if ev.Token == nil {
			t.Fatalf("sse event %q has no token", payload)
		}
		vals = append(vals, *ev.Token)
		steps = append(steps, ev.Step)
	}
}

func TestHTTPGenerateSSE(t *testing.T) {
	const d = 16
	svc := genService(t, d)
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()

	prompt := genPrompt(rand.New(rand.NewSource(2)), d)
	body, _ := json.Marshal(map[string]any{"prompt": prompt, "max_tokens": 25})
	resp, err := http.Post(ts.URL+"/v1/models/gen:generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	vals, _, final := sseTokens(t, bufio.NewReader(resp.Body))
	want := genReference(d, prompt, 25)
	if len(vals) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(vals), len(want))
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			t.Fatalf("token %d: JSON round-trip not exact (%v != %v)", i, vals[i], want[i])
		}
	}
	if final["finish_reason"] != string(generate.FinishLength) {
		t.Fatalf("finish reason %v", final["finish_reason"])
	}

	// Error mapping before the stream starts: unknown model → 404 JSON.
	resp2, err := http.Post(ts.URL+"/v1/models/nope:generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d, want 404", resp2.StatusCode)
	}
}

func TestHTTPGenerateDisconnectFreesSlot(t *testing.T) {
	const d = 16
	svc := genService(t, d)
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()

	prompt := genPrompt(rand.New(rand.NewSource(3)), d)
	body, _ := json.Marshal(map[string]any{"prompt": prompt, "max_tokens": 1 << 20})
	resp, err := http.Post(ts.URL+"/v1/models/gen:generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close() // client walks away mid-stream

	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Generate []generate.Stats `json:"generate"`
		}
		buf, err := svc.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf, &stats); err != nil {
			t.Fatal(err)
		}
		if len(stats.Generate) == 1 && stats.Generate[0].Active == 0 {
			if stats.Generate[0].SlotLeaks != 0 {
				t.Fatalf("slot leaks: %d", stats.Generate[0].SlotLeaks)
			}
			if stats.Generate[0].Cancelled == 0 {
				t.Fatal("disconnect did not cancel the sequence")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not freed after disconnect: %+v", stats.Generate)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func startGenServer(t testing.TB, d int) (string, *Service) {
	t.Helper()
	srv := rpc.NewServer()
	svc := genService(t, d)
	Attach(srv, svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, svc
}

func TestGenerateStreamWireRoundTrip(t *testing.T) {
	const d = 16
	addr, _ := startGenServer(t, d)
	c := rpc.Dial(addr)
	defer c.Close()

	prompt := genPrompt(rand.New(rand.NewSource(4)), d)
	gs, err := OpenGenerateStream(c, telemetry.SpanContext{}, "gen", generate.Request{Prompt: prompt, MaxTokens: 30})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	lastIndex := -1
	for {
		tok, ok := gs.Next()
		if !ok {
			break
		}
		if tok.Index != lastIndex+1 {
			t.Fatalf("token index %d after %d", tok.Index, lastIndex)
		}
		lastIndex = tok.Index
		got = append(got, tok.Value)
	}
	reason, ferr := gs.Finish()
	if reason != generate.FinishLength || ferr != nil {
		t.Fatalf("finish (%s, %v)", reason, ferr)
	}
	want := genReference(d, prompt, 30)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("token %d diverged over the wire", i)
		}
	}

	// Canonical error over the wire: unknown model → ErrNotFound exactly.
	gs2, err := OpenGenerateStream(c, telemetry.SpanContext{}, "nope", generate.Request{Prompt: prompt, MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gs2.Next(); ok {
		t.Fatal("unknown model produced a token")
	}
	if _, ferr := gs2.Finish(); !errors.Is(ferr, ErrNotFound) {
		t.Fatalf("remote unknown model: got %v, want ErrNotFound", ferr)
	}
}

func TestGenerateStreamCancelFreesRemoteSlot(t *testing.T) {
	const d = 16
	addr, svc := startGenServer(t, d)
	c := rpc.Dial(addr)
	defer c.Close()

	prompt := genPrompt(rand.New(rand.NewSource(5)), d)
	gs, err := OpenGenerateStream(c, telemetry.SpanContext{}, "gen", generate.Request{Prompt: prompt, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := gs.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	// Cancel mid-frame: once the slot has stalled, the frames after the next
	// credit grant carry a full window, so reading on reaches one quickly.
	waitGenStats(t, svc, "a stalled slot", func(s generate.Stats) bool { return s.Stalls > 0 })
	for i := 0; gs.Buffered() == 0; i++ {
		if _, ok := gs.Next(); !ok || i > 1<<16 {
			t.Fatalf("no multi-token frame after %d tokens (ok=%v)", i, ok)
		}
	}
	gs.Cancel()
	if n := gs.Buffered(); n != 0 {
		t.Fatalf("Buffered() = %d after Cancel, want 0", n)
	}
	if tok, ok := gs.Next(); ok {
		t.Fatalf("token %d returned after Cancel", tok.Index)
	}
	if reason, ferr := gs.Finish(); reason != generate.FinishCancelled || ferr != nil {
		t.Fatalf("finish after Cancel (%s, %v), want (cancelled, nil)", reason, ferr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Generate []generate.Stats `json:"generate"`
		}
		buf, _ := svc.StatsJSON()
		if err := json.Unmarshal(buf, &stats); err != nil {
			t.Fatal(err)
		}
		if len(stats.Generate) == 1 && stats.Generate[0].Active == 0 && stats.Generate[0].Cancelled > 0 {
			if stats.Generate[0].SlotLeaks != 0 {
				t.Fatalf("slot leaks: %d", stats.Generate[0].SlotLeaks)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote cancel did not free the slot: %+v", stats.Generate)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGenStats polls the service's one generative engine until cond holds.
func waitGenStats(t testing.TB, svc *Service, what string, cond func(generate.Stats) bool) generate.Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := svc.genStats()[0]
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateStreamSlowConsumerBound: a remote consumer that stops reading
// stalls its own slot, and the server's lead over it stays within what the
// credit window and one Buffered snapshot per frame allow (genstream.go).
func TestGenerateStreamSlowConsumerBound(t *testing.T) {
	const d = 16
	// rpc's streamWindow frames in flight plus one blocked in Send, each at
	// most TokenWindow+1 tokens, plus a full token window (engine default).
	const streamWindow, tokenWindow = 64, 32
	const bound = (streamWindow+1)*(tokenWindow+1) + tokenWindow
	addr, svc := startGenServer(t, d)
	c := rpc.Dial(addr)
	defer c.Close()

	prompt := genPrompt(rand.New(rand.NewSource(11)), d)
	gs, err := OpenGenerateStream(c, telemetry.SpanContext{}, "gen", generate.Request{Prompt: prompt, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Cancel()
	tok, ok := gs.Next()
	if !ok {
		t.Fatal("no first token")
	}
	got := []float64{tok.Value}

	// The consumer stops reading. No fixed sleep: poll until the slot has
	// stalled and the token count has held still for 50 polls in a row,
	// checking the bound at every poll on the way.
	last, held := int64(-1), 0
	st := waitGenStats(t, svc, "the producer to stop", func(s generate.Stats) bool {
		if s.Tokens > bound {
			t.Fatalf("server emitted %d tokens to a consumer that read 1, bound %d", s.Tokens, bound)
		}
		if s.Tokens == last {
			held++
		} else {
			last, held = s.Tokens, 0
		}
		return s.Stalls > 0 && held >= 50
	})
	t.Logf("lead over a stalled remote consumer: %d tokens (bound %d)", st.Tokens-1, bound)

	// Read on: the resumed tokens are the sequential reference's, bit for bit.
	total := int(st.Tokens) + 1000
	for len(got) < total {
		tok, ok := gs.Next()
		if !ok {
			t.Fatalf("stream ended after %d tokens", len(got))
		}
		if tok.Index != len(got) {
			t.Fatalf("token index %d, want %d", tok.Index, len(got))
		}
		got = append(got, tok.Value)
	}
	for i, want := range genReference(d, prompt, total) {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("token %d diverged after the stall", i)
		}
	}
}

// TestGenerateStreamAllocs gates remote token streaming — client decode,
// server encode, the engine step and the frames both ways — at 0 allocs.
func TestGenerateStreamAllocs(t *testing.T) {
	const d = 16
	addr, _ := startGenServer(t, d)
	c := rpc.Dial(addr)
	defer c.Close()
	gs, err := OpenGenerateStream(c, telemetry.SpanContext{}, "gen", generate.Request{
		Prompt: genPrompt(rand.New(rand.NewSource(13)), d), MaxTokens: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Cancel()
	next := func() {
		if _, ok := gs.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	for i := 0; i < 2000; i++ {
		next()
	}
	if avg := testing.AllocsPerRun(5000, next); avg != 0 {
		t.Fatalf("remote token streaming allocates %.3f allocs/token, want 0", avg)
	}
}

// TestRouterGenerateMultiTokenFrames: a router relays two concurrent
// sequences whose frames carry many tokens each, exactly, and releases the
// replica after both finish and after a mid-stream cancel.
func TestRouterGenerateMultiTokenFrames(t *testing.T) {
	const d, budget = 16, 3000
	addr, svc := startGenServer(t, d)
	r, err := NewRouter([]string{addr}, RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(12))
	prompts := [][]float64{genPrompt(rng, d), genPrompt(rng, d)}
	streams := make([]generate.Stream, len(prompts))
	for i, p := range prompts {
		st, err := r.Generate("gen", generate.Request{Prompt: p, MaxTokens: budget})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Cancel()
		if n := st.Buffered(); n < 1 {
			t.Fatalf("Buffered() = %d with the prefetched first token unread", n)
		}
		streams[i] = st
	}
	// Nobody reads until a window has filled: the frames relayed after that
	// carry up to TokenWindow+1 tokens.
	waitGenStats(t, svc, "a stalled slot", func(s generate.Stats) bool { return s.Stalls > 0 })

	maxBuffered := make([]int, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := genReference(d, prompts[i], budget)
			n := 0
			for ; ; n++ {
				tok, ok := st.Next()
				if !ok {
					break
				}
				if tok.Index != n || n >= budget || math.Float64bits(tok.Value) != math.Float64bits(want[n]) {
					t.Errorf("sequence %d: token %d (index %d) diverged through the router", i, n, tok.Index)
					return
				}
				maxBuffered[i] = max(maxBuffered[i], st.Buffered())
			}
			if reason, ferr := st.Finish(); reason != generate.FinishLength || ferr != nil || n != budget {
				t.Errorf("sequence %d: finish (%s, %v) after %d tokens", i, reason, ferr, n)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if max(maxBuffered[0], maxBuffered[1]) < 2 {
		t.Fatalf("no multi-token frame relayed (max Buffered %v)", maxBuffered)
	}
	if n := r.Outstanding(); n != 0 {
		t.Fatalf("outstanding %d after both sequences finished", n)
	}

	st, err := r.Generate("gen", generate.Request{Prompt: prompts[0], MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	st.Cancel()
	if n := r.Outstanding(); n != 0 {
		t.Fatalf("outstanding %d after a mid-stream cancel", n)
	}
	if tok, ok := st.Next(); ok {
		t.Fatalf("token %d after Cancel", tok.Index)
	}
	s := waitGenStats(t, svc, "the cancelled slot to free", func(s generate.Stats) bool {
		return s.Active == 0 && s.Cancelled > 0
	})
	if s.SlotLeaks != 0 {
		t.Fatalf("slot leaks: %d", s.SlotLeaks)
	}
}

func TestRouterGenerateFailsOverDeadReplica(t *testing.T) {
	const d = 16
	addr, _ := startGenServer(t, d)
	// A dead address that answers nothing: dialing it fails at first use.
	r, err := NewRouter([]string{"127.0.0.1:1", addr}, RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(6))
	// Drive enough sequences that least-outstanding picks the dead replica
	// at least once before it lands on the bench.
	for k := 0; k < 4; k++ {
		prompt := genPrompt(rng, d)
		st, err := r.Generate("gen", generate.Request{Prompt: prompt, MaxTokens: 15})
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		var got []float64
		for {
			tok, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, tok.Value)
		}
		if reason, ferr := st.Finish(); reason != generate.FinishLength || ferr != nil {
			t.Fatalf("request %d finish (%s, %v)", k, reason, ferr)
		}
		want := genReference(d, prompt, 15)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("request %d token %d diverged through the router", k, i)
			}
		}
	}
	if r.Outstanding() != 0 {
		t.Fatalf("outstanding not released: %d", r.Outstanding())
	}
	// Application outcomes do not fail over: unknown model is ErrNotFound,
	// not an all-replicas-failed wrap.
	if _, err := r.Generate("nope", generate.Request{Prompt: genPrompt(rng, d), MaxTokens: 5}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model through router: %v", err)
	}
}

func TestGenerativeCheckpointRoundTrip(t *testing.T) {
	const d = 8
	path := filepath.Join(t.TempDir(), "gen.ckpt")
	if err := SaveGenerative(path, 7, genWeights(d)); err != nil {
		t.Fatal(err)
	}
	w, version, err := LoadGenerative(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 7 {
		t.Fatalf("version %d, want 7", version)
	}
	if got, want := w.F64(), genWeights(d).F64(); len(got) != len(want) {
		t.Fatalf("weights length %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("weight %d diverged", i)
			}
		}
	}
	// A linear checkpoint is not a generative one.
	linPath := filepath.Join(t.TempDir(), "lin.ckpt")
	if err := SaveLinear(linPath, 1, genWeights(d)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadGenerative(linPath, 0); err == nil || !strings.Contains(err.Error(), "graph id") {
		t.Fatalf("graph id check missing: %v", err)
	}
}

func TestGenerativeHotSwapClosesOldEngine(t *testing.T) {
	const d = 8
	svc := genService(t, d)
	prompt := genPrompt(rand.New(rand.NewSource(8)), d)
	st, err := svc.Generate("gen", generate.Request{Prompt: prompt, MaxTokens: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("no first token")
	}
	if err := svc.ServeGenerative("gen", 4, genWeights(d), generate.Options{MaxSlots: 2}); err != nil {
		t.Fatal(err)
	}
	// The old engine closed under the in-flight sequence.
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if reason, ferr := st.Finish(); reason != generate.FinishClosed || !errors.Is(ferr, ErrClosed) {
		t.Fatalf("swapped-out sequence finish (%s, %v)", reason, ferr)
	}
	// The new engine serves, with the new version visible.
	st2, err := svc.Generate("gen", generate.Request{Prompt: prompt, MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := st2.Next(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("post-swap decode yielded %d tokens, want 5", n)
	}
	for _, m := range svc.Models() {
		if m.Name == "gen" && m.Version != 4 {
			t.Fatalf("post-swap version %d, want 4", m.Version)
		}
	}
}
