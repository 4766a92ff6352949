// Package generate is the sequence-serving engine: continuous batching for
// models that emit a stream of tokens per request, the autoregressive
// workload the one-shot micro-batcher cannot express.
//
// The pieces mirror what a production LLM server calls its scheduler:
//
//   - Model: a small autoregressive recurrence. Each decode step computes
//     one output token from the per-sequence state with a fixed reduction
//     order (gemm.Dot64), then folds the token back into the state. One
//     sequence's step touches only that sequence's state row, so decoding
//     many sequences "together" is bitwise identical to decoding each
//     alone — the property every correctness test in this package leans on.
//   - Engine: a single decode loop over a fixed set of slots. Each slot
//     holds one in-flight sequence's recurrent state in a preallocated,
//     reusable buffer (the KV-cache analogue). New requests are admitted
//     into free slots at every step boundary — continuous batching, not
//     flush-and-refill — and a finished or cancelled sequence's slot is
//     reclaimed the same way, without allocation.
//   - Admission: a bounded queue with the batcher's reject > queue > expire
//     precedence. A full queue rejects immediately (ErrOverloaded); a
//     queued request whose deadline passes before a slot frees expires
//     (ErrDeadline). The deadline bounds time-to-first-token; once a
//     sequence is decoding, it streams until EOS, its token budget, or
//     cancellation.
//   - Backpressure: each sequence streams through a bounded token window.
//     A consumer that stops reading stalls only its own slot — the decode
//     loop skips it that step and keeps the rest of the batch moving —
//     and consuming a token wakes the loop again.
//
// The steady-state decode path (step, emit, stall-skip, slot reclaim) is
// allocation-free; CI gates AllocsPerRun==0 on it.
package generate

import (
	"errors"
	"fmt"
	"math"

	"tfhpc/internal/gemm"
)

// Canonical admission/outcome errors. The serving layer maps them onto its
// own canonical set so HTTP codes and wire status bytes stay exact.
var (
	// ErrOverloaded: the admission queue is full — backpressure.
	ErrOverloaded = errors.New("generate: overloaded, request rejected")
	// ErrDeadline: the request's deadline passed before its first token.
	ErrDeadline = errors.New("generate: deadline exceeded before first token")
	// ErrClosed: the engine is shutting down.
	ErrClosed = errors.New("generate: engine closed")
	// ErrBadRequest: the request does not match the model.
	ErrBadRequest = errors.New("generate: bad request")
)

// FinishReason says why a sequence stopped emitting tokens.
type FinishReason string

const (
	// FinishEOS: the model emitted its stop condition (|token| < StopBelow).
	FinishEOS FinishReason = "eos"
	// FinishLength: the sequence hit its token budget.
	FinishLength FinishReason = "length"
	// FinishCancelled: the consumer cancelled mid-stream.
	FinishCancelled FinishReason = "cancelled"
	// FinishExpired: the deadline passed while the request was queued.
	FinishExpired FinishReason = "expired"
	// FinishClosed: the engine shut down under the sequence.
	FinishClosed FinishReason = "closed"
)

// Token is one emitted output. Step is the engine's global decode-step
// counter at emission time: two sequences whose token Steps interleave were
// decoded in the same in-flight batch, which is how tests assert that
// continuous admission is real rather than assumed.
type Token struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
	Step  uint64  `json:"step"`
}

// Stream is a consumer's view of one generating sequence: Next blocks for
// the next token and returns false once the sequence finished; Finish is
// valid after that and reports why (with the error for abnormal ends).
// Cancel may be called from any goroutine, at any time; the slot is
// reclaimed at the next decode step. Buffered is the number of tokens Next
// can return without blocking — what a relay drains into one frame. Both a
// local Sequence and a remote relay implement it.
type Stream interface {
	Next() (Token, bool)
	Buffered() int
	Finish() (FinishReason, error)
	Cancel()
}

// Model is the synthetic autoregressive model: a trained weight vector w
// (d features) and a per-sequence state h of the same width. Each step
// emits y = h·w (fixed-order Dot64) and updates the state by shifting in
// tanh(y) — bounded, deterministic, and dependent on every prior token, so
// any cross-sequence state contamination changes emitted bits immediately.
type Model struct {
	name string
	w    []float64
}

// NewModel builds a model over a copy of the weight vector.
func NewModel(name string, w []float64) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty model name", ErrBadRequest)
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("%w: empty weight vector", ErrBadRequest)
	}
	return &Model{name: name, w: append([]float64(nil), w...)}, nil
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Features is the state/prompt width d.
func (m *Model) Features() int { return len(m.w) }

// Step advances one sequence by one token, in place: the returned token is
// h·w in the kernel's fixed reduction order, and h shifts left with tanh of
// the token appended. Allocation-free.
func (m *Model) Step(h []float64) float64 {
	y := gemm.Dot64(h, m.w)
	copy(h, h[1:])
	h[len(h)-1] = math.Tanh(y)
	return y
}

// Reference decodes a prompt sequentially, alone — the ground truth every
// continuous-batched decode must match bit for bit.
func (m *Model) Reference(prompt []float64, maxTokens int, stopBelow float64) ([]float64, FinishReason) {
	h := append([]float64(nil), prompt...)
	out := make([]float64, 0, maxTokens)
	for len(out) < maxTokens {
		y := m.Step(h)
		out = append(out, y)
		if stopBelow > 0 && math.Abs(y) < stopBelow {
			return out, FinishEOS
		}
	}
	return out, FinishLength
}
