package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// generate: token streaming from the continuous-batching engine over one rpc
// connection. Eight logical clients — exactly the engine's slot count — each
// open a stream, read it to the end and open the next, so every new sequence
// joins a batch that is already decoding.

const (
	genFeatures = 2048
	genSlots    = 8
	genQueue    = 64
	genClients  = genSlots
	genPrompts  = 16
	genModel    = "bench"
)

// genLengths are the token budgets, cycled by request index.
var genLengths = []int{128, 256, 512, 1024}

func generateWorkload() *workload {
	return &workload{
		name: "generate", loop: "closed", load: fmt.Sprintf("%d clients on 1 TCP connection", genClients),
		why:    "Continuous-batching decode plus framed-rpc token streaming: 8 closed-loop clients = 8 slots, lengths 128..1024, every join lands mid-decode",
		setup:  func(e *env) (instance, error) { return setupGenerate(e, true) },
		budget: generateBudget,
	}
}

type generateInst struct {
	e       *env
	svc     *serving.Service
	srv     *rpc.Server
	client  *rpc.Client // nil: call Service.Generate in process (the engine probe)
	prompts [][]float64
	// want[p] is prompt p decoded alone by Model.Reference to the longest
	// budget; every shorter sequence must equal its prefix bit for bit.
	want [][]float64
}

// setupGenerate starts the service and, when overRPC is set, an rpc server in
// front of it and one client connection. The in-process variant is the
// engine-layer probe: the same load without the transport.
func setupGenerate(e *env, overRPC bool) (*generateInst, error) {
	in := &generateInst{e: e, svc: serving.NewService(serving.NewRegistry(), serving.BatchOptions{})}
	r := tensor.NewRNG(e.seed*2 + 51)
	uniform := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = (r.Float64()*2 - 1) * scale
		}
		return v
	}
	w := uniform(genFeatures, 1/math.Sqrt(genFeatures))
	if err := in.svc.ServeGenerative(genModel, 1, tensor.FromF64(tensor.Shape{genFeatures}, w),
		generate.Options{MaxSlots: genSlots, QueueDepth: genQueue}); err != nil {
		in.svc.Close()
		return nil, err
	}
	model, err := generate.NewModel(genModel, w)
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	longest := genLengths[len(genLengths)-1]
	for p := 0; p < genPrompts; p++ {
		prompt := uniform(genFeatures, 1)
		ref, _ := model.Reference(prompt, longest, 0)
		in.prompts, in.want = append(in.prompts, prompt), append(in.want, ref)
	}
	if overRPC {
		in.srv = rpc.NewServer()
		serving.Attach(in.srv, in.svc)
		addr, err := in.srv.Listen("127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, err
		}
		in.client = rpc.Dial(addr)
	}
	in.run(200*time.Millisecond, 0) // warm-up
	return in, nil
}

func (in *generateInst) open(req generate.Request) (generate.Stream, error) {
	if in.client == nil {
		return in.svc.Generate(genModel, req)
	}
	return serving.OpenGenerateStream(in.client, telemetry.SpanContext{}, genModel, req)
}

// genSeq is one finished sequence as its client saw it.
type genSeq struct {
	end    time.Duration // since the phase started
	ttft   float64       // seconds from just before the open to the first token
	tokens int
	why    string // non-empty: the sequence failed
}

// run drives the closed loop for d and returns every sequence.
func (in *generateInst) run(d time.Duration, parent int64) []genSeq {
	start := time.Now()
	perClient := make([][]genSeq, genClients)
	var wg sync.WaitGroup
	for c := 0; c < genClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tb := in.e.tr.buf()
			for k := 0; time.Since(start) < d; k++ {
				i := k*genClients + c
				p, budget := i%genPrompts, genLengths[i%len(genLengths)]
				sp := tb.begin("sequence", parent, int64(i+1))
				seq := in.one(p, budget)
				tb.end(sp)
				tb.count(sp, "tokens", float64(seq.tokens))
				seq.end = time.Since(start)
				perClient[c] = append(perClient[c], seq)
			}
		}(c)
	}
	wg.Wait()
	var all []genSeq
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// one streams one sequence and checks every token against the reference.
func (in *generateInst) one(p, budget int) genSeq {
	t0 := time.Now()
	st, err := in.open(generate.Request{Prompt: in.prompts[p], MaxTokens: budget})
	if err != nil {
		return genSeq{why: err.Error()}
	}
	seq := genSeq{}
	for {
		tok, ok := st.Next()
		if !ok {
			break
		}
		if seq.tokens == 0 {
			seq.ttft = time.Since(t0).Seconds()
		}
		if seq.why == "" && (tok.Index != seq.tokens || seq.tokens >= budget ||
			math.Float64bits(tok.Value) != math.Float64bits(in.want[p][seq.tokens])) {
			seq.why = fmt.Sprintf("prompt %d token %d = %v (index %d), Model.Reference gives %v",
				p, seq.tokens, tok.Value, tok.Index, in.want[p][min(seq.tokens, budget-1)])
		}
		seq.tokens++
	}
	reason, err := st.Finish()
	switch {
	case seq.why != "":
	case err != nil:
		seq.why = err.Error()
	case reason != generate.FinishLength || seq.tokens != budget:
		seq.why = fmt.Sprintf("prompt %d finished %q after %d of %d tokens", p, reason, seq.tokens, budget)
	}
	return seq
}

// engineStats reads the engine's public counters the way an operator would:
// from the service's /statsz payload.
func (in *generateInst) engineStats() (generate.Stats, error) {
	raw, err := in.svc.StatsJSON()
	if err != nil {
		return generate.Stats{}, err
	}
	var payload struct {
		Generate []generate.Stats `json:"generate"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil || len(payload.Generate) != 1 {
		return generate.Stats{}, fmt.Errorf("statsz: want one generate engine, got %d (%v)", len(payload.Generate), err)
	}
	return payload.Generate[0], nil
}

func (in *generateInst) measure(d time.Duration, parent int64) (*measurement, error) {
	m := &measurement{Counts: map[string]float64{}}
	st0, err := in.engineStats()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	seqs := in.run(d, parent)
	m.WallS = time.Since(start).Seconds()
	st1, err := in.engineStats()
	if err != nil {
		return nil, err
	}

	nWin := int(d / windowLen)
	if nWin == 0 {
		nWin = 1
	}
	ttftWin := make([][]float64, nWin)
	tokWin := make([]float64, nWin)
	var ttft []float64
	for _, s := range seqs {
		m.Attempted++
		if s.why != "" {
			m.fail("generate: %s", s.why)
			continue
		}
		// A sequence belongs to the window it finished in; sequences that
		// ran past the last whole window are left out of the windowed
		// figures (they started inside the phase and ended after it).
		if w := int(s.end / windowLen); w < nWin {
			ttftWin[w] = append(ttftWin[w], s.ttft)
			tokWin[w] += float64(s.tokens)
		}
		ttft = append(ttft, s.ttft)
	}
	for w := range tokWin {
		tokWin[w] /= math.Min(windowLen.Seconds(), d.Seconds())
	}
	m.Ops, m.OpUnit = len(ttft), "sequence (time to first token)"
	m.OpMs = median(ttft) * 1e3
	m.TailMs = windowedTail(ttftWin, 99) * 1e3
	m.RatePerS = median(tokWin)
	m.named("tokens_per_s", "1/s", m.RatePerS, tokWin, "median over 1-s windows of tokens in sequences finished in the window")
	m.named("ttft_p50_ms", "ms", m.OpMs, ttft, "from just before the stream is opened to the first token")
	m.named("ttft_p99_ms", "ms", m.TailMs, nil, "median over 1-s windows of the window's p99")
	if p, v, ok := highestSupported(ttft); ok {
		m.named("ttft_whole_run_tail_ms", "ms", v*1e3, nil, fmt.Sprintf("whole-run p%g, ungated", p))
	}

	tokens := float64(st1.Tokens - st0.Tokens)
	steps := float64(st1.Steps - st0.Steps)
	m.Counts["sequences"] = float64(st1.Sequences - st0.Sequences)
	m.Counts["tokens"] = tokens
	m.Counts["engine_steps"] = steps
	m.Counts["tokens_per_step"] = tokens / steps
	m.Counts["stalls"] = float64(st1.Stalls - st0.Stalls)
	for _, c := range []struct {
		name string
		n    int64
	}{{"rejected", st1.Rejected - st0.Rejected}, {"expired", st1.Expired - st0.Expired},
		{"cancelled", st1.Cancelled - st0.Cancelled}, {"slot_leaks", st1.SlotLeaks}} {
		m.Counts[c.name] = float64(c.n)
		if c.n != 0 {
			m.Attempted++
			m.fail("generate: engine counted %d %s, want 0", c.n, c.name)
		}
	}
	return m, nil
}

func (in *generateInst) close() {
	if in.client != nil {
		in.client.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
	in.svc.Close()
}

func generateBudget(m *measurement, p probeSet) []budgetRow {
	return []budgetRow{
		{Layer: "engine", What: "time to first token of the same load calling Service.Generate in process", Seconds: p[pEngineTTFT] / 1e3},
		callRow("rpc", "open a stream, one frame each way (request, first token)", 1, p[pStreamOpen]),
	}
}
