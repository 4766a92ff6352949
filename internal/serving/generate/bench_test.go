package generate

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkGenerateDecode drives the steady-state decode hot path: a
// saturated batch with consumers keeping every window open, one token
// consumed per iteration. TestSteadyStateDecodeAllocsZero pins its allocs/op
// at exactly zero.
func BenchmarkGenerateDecode(b *testing.B) {
	const d = 64
	w := make([]float64, d)
	for i := range w {
		w[i] = 0.1 + 0.05*float64(i%7)
	}
	m, err := NewModel("bench", w)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(m, Options{
		MaxSlots:        4,
		TokenWindow:     512,
		MaxTokens:       1 << 30,
		DefaultDeadline: time.Hour,
	})
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	streams := make([]*Sequence, 4)
	for i := range streams {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()*2 - 1
		}
		s, err := eng.Submit(Request{Prompt: p, MaxTokens: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = s
	}
	// Warm every window so the measured loop is pure steady state.
	for i := 0; i < 256; i++ {
		for _, s := range streams {
			if _, ok := s.Next(); !ok {
				b.Fatal("sequence ended during warmup")
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := streams[i%len(streams)].Next(); !ok {
			b.Fatal("sequence ended mid-benchmark")
		}
	}
	b.StopTimer()
	for _, s := range streams {
		s.Cancel()
	}
}
