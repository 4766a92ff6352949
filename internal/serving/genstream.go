package serving

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// Streaming generation: one rpc stream carries one generated sequence. The
// stream tier's credit window is the transport-level flow control; the
// engine's per-sequence token window is the application-level one — a slow
// remote consumer stalls only its own decode slot, exactly like a local one.
//
// Request frame (client → server, exactly one):
//
//	header | uvarint maxTokens | uvarint stopBelowBits (Float64bits) | prompt (8-byte LE float64 each)
//
// where header is the request header streaming predict also carries
// (parseHeader); its budget bounds time-to-first-token (the admission
// deadline). Any later frame from the client — or tearing the stream down
// (reset) — cancels the sequence.
//
// Response frames (server → client):
//
//	0x00 | uvarint firstIndex | uvarint n | n × (uvarint step | 8-byte LE float64)
//	0x01 | finish reason text             clean finish
//	0x02 | status byte | error text       error finish
//
// A token frame carries every token the sequence had buffered when the
// handler woke (nextWindow: one Buffered snapshot), so it holds at most
// TokenWindow+1 and a new sequence's first token does not queue behind
// hundreds of one-token frames. The snapshot also bounds a stalled remote
// consumer's lag: streamWindow frames in flight plus one blocked in Send,
// each ≤ TokenWindow+1 tokens, plus a full token window —
// (streamWindow+1)×(TokenWindow+1)+TokenWindow = 2177 tokens by default,
// where one token per frame gave streamWindow+1+TokenWindow = 97.
//
// The finish frame, not the stream close, carries the outcome; a stream that
// ends without one is a transport loss (ErrClosed), which is what lets the
// router distinguish "replica died" from "sequence finished".
const GenerateStreamMethod = "ServingGenerateStream"

// Generate stream frame kinds.
const (
	gfToken = 0x00
	gfDone  = 0x01
	gfError = 0x02
)

// serveGenerateStream serves one generated sequence over one rpc stream.
func serveGenerateStream(p Predictor, st *rpc.Stream) error {
	buf, err := st.Recv(nil)
	if err != nil {
		return err
	}
	budget, tsc, model, req, perr := parseGenerateReq(buf)
	if perr != nil {
		return perr // protocol violation: reset the stream
	}
	req.Deadline = budgetDeadline(budget, time.Microsecond)
	var span *telemetry.Span
	if tsc.Valid() {
		span = telemetry.StartChild(tsc, "stream_generate_serve").Arg("model", model)
	}
	defer span.End()

	seq, gerr := p.Generate(model, req)
	if gerr != nil {
		resp := appendStatus([]byte{gfError}, gerr)
		st.Send(resp)
		return nil // answered: close, don't reset
	}
	// Cancellation watcher: any further client frame, or the client tearing
	// the stream down, cancels the sequence so its slot frees mid-decode.
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		var b []byte
		for {
			var rerr error
			b, rerr = st.Recv(b)
			if rerr != nil {
				seq.Cancel()
				return
			}
			seq.Cancel()
		}
	}()
	resp := make([]byte, 0, 32)
	for toks, ok := nextWindow(seq, nil); ok; toks, ok = nextWindow(seq, toks) {
		resp = appendTokenFrame(resp[:0], toks)
		if serr := st.Send(resp); serr != nil {
			seq.Cancel()
			for {
				if _, more := seq.Next(); !more {
					break
				}
			}
			<-recvDone
			return serr
		}
	}
	reason, ferr := seq.Finish()
	if ferr != nil {
		resp = appendStatus(append(resp[:0], gfError), ferr)
	} else {
		resp = append(append(resp[:0], gfDone), reason...)
	}
	st.Send(resp)
	st.CloseSend()
	<-recvDone
	return nil
}

// parseGenerateReq splits the single request frame. The request's Deadline
// is left zero: the caller turns budget into it.
func parseGenerateReq(b []byte) (budget uint64, tsc telemetry.SpanContext, model string, req generate.Request, err error) {
	budget, tsc, mb, b, err := parseHeader(b)
	if err != nil {
		return 0, tsc, "", req, err
	}
	maxTok, n := wire.Uvarint(b)
	if n <= 0 {
		return 0, tsc, "", req, errors.New("serving: malformed generate max tokens")
	}
	b = b[n:]
	stopBits, n := wire.Uvarint(b)
	if n <= 0 {
		return 0, tsc, "", req, errors.New("serving: malformed generate stop threshold")
	}
	b = b[n:]
	if len(b)%8 != 0 || len(b) == 0 {
		return 0, tsc, "", req, errors.New("serving: malformed generate prompt")
	}
	prompt := make([]float64, len(b)/8)
	copy(tensor.AsBytes(prompt), b)
	tensor.SwapHostOrder(tensor.AsBytes(prompt), tensor.Float64)
	req = generate.Request{Prompt: prompt, MaxTokens: int(maxTok), StopBelow: math.Float64frombits(stopBits)}
	return budget, tsc, string(mb), req, nil
}

// appendGenerateReq is the client half of parseGenerateReq.
func appendGenerateReq(b []byte, budget uint64, tsc telemetry.SpanContext, model string, req generate.Request) []byte {
	b = appendHeader(b, budget, tsc, model)
	b = binary.AppendUvarint(b, uint64(req.MaxTokens))
	b = binary.AppendUvarint(b, math.Float64bits(req.StopBelow))
	b = append(b, tensor.AsBytes(req.Prompt)...)
	tensor.SwapHostOrder(b[len(b)-8*len(req.Prompt):], tensor.Float64)
	return b
}

// nextWindow blocks for a token, then drains the tokens one Buffered snapshot
// reports: one rpc frame or SSE flush. False: the stream finished.
func nextWindow(st generate.Stream, dst []generate.Token) ([]generate.Token, bool) {
	tok, ok := st.Next()
	if !ok {
		return dst[:0], false
	}
	dst = append(dst[:0], tok)
	for n := st.Buffered(); n > 0; n-- {
		if tok, ok = st.Next(); !ok {
			break
		}
		dst = append(dst, tok)
	}
	return dst, true
}

// appendTokenFrame encodes toks (n ≥ 1, consecutive indexes) as one frame.
func appendTokenFrame(b []byte, toks []generate.Token) []byte {
	b = append(b, gfToken)
	b = binary.AppendUvarint(b, uint64(toks[0].Index))
	b = binary.AppendUvarint(b, uint64(len(toks)))
	for _, t := range toks {
		b = binary.AppendUvarint(b, t.Step)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Value))
	}
	return b
}

// parseTokenFrame decodes a token frame into dst[:0], validating all of it
// (kind, n ≥ 1, entries, no tail, no index overflow, minimal uvarints) before
// returning any token; an accepted frame re-encodes to the same bytes.
func parseTokenFrame(dst []generate.Token, b []byte) ([]generate.Token, error) {
	fail := func(what string) ([]generate.Token, error) {
		return dst[:0], fmt.Errorf("malformed generate %s", what)
	}
	if len(b) == 0 || b[0] != gfToken {
		return fail("token frame kind")
	}
	p := b[1:]
	first, k := wire.Uvarint(p)
	if k <= 0 {
		return fail("token index")
	}
	p = p[k:]
	n, k := wire.Uvarint(p)
	// An entry is at least 9 bytes: n is bounded before dst grows.
	if k <= 0 || n == 0 || n > uint64(len(p)-k)/9 || first > math.MaxInt-(n-1) {
		return fail("token count")
	}
	p, dst = p[k:], dst[:0]
	for i := uint64(0); i < n; i++ {
		step, k := wire.Uvarint(p)
		if k <= 0 || len(p)-k < 8 {
			return fail("token entry")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[k:]))
		dst = append(dst, generate.Token{Index: int(first + i), Value: v, Step: step})
		p = p[k+8:]
	}
	if len(p) != 0 {
		return fail("token frame tail")
	}
	return dst, nil
}

// GenerateStream is the client endpoint of one remote generated sequence.
// It implements generate.Stream, so a relayed sequence consumes exactly like
// a local one.
type GenerateStream struct {
	st   *rpc.Stream
	rbuf []byte
	// pend[next:]: decoded, not yet returned; consumer-owned, unlike cancelled.
	pend []generate.Token
	next int

	cancelled atomic.Bool

	mu     sync.Mutex
	done   bool
	finish generate.FinishReason
	err    error
}

// OpenGenerateStream starts one generation on a replica. The deadline bounds
// time-to-first-token and rides the request frame; tsc joins the server-side
// span to the caller's trace.
func OpenGenerateStream(c *rpc.Client, tsc telemetry.SpanContext, model string, req generate.Request) (*GenerateStream, error) {
	budget, ok := budgetOf(req.Deadline)
	if !ok {
		return nil, ErrDeadline
	}
	st, err := c.OpenStream(GenerateStreamMethod)
	if err != nil {
		return nil, err
	}
	if err := st.Send(appendGenerateReq(nil, budget, tsc, model, req)); err != nil {
		st.Close()
		return nil, err
	}
	return &GenerateStream{st: st}, nil
}

// Next implements generate.Stream: it serves the last decoded frame, then
// blocks for the next one. After Cancel the rest of a frame is discarded.
func (gs *GenerateStream) Next() (generate.Token, bool) {
	if gs.Buffered() > 0 {
		gs.next++
		return gs.pend[gs.next-1], true
	}
	gs.pend, gs.next = gs.pend[:0], 0
	for {
		b, err := gs.st.Recv(gs.rbuf)
		if err != nil {
			if gs.cancelled.Load() {
				// We reset the stream; the missing finish frame is ours.
				gs.setFinish(generate.FinishCancelled, nil)
			} else {
				gs.setFinish(generate.FinishClosed, fmt.Errorf("%w (generate stream): %v", ErrClosed, err))
			}
			return generate.Token{}, false
		}
		gs.rbuf = b
		if len(b) == 0 {
			continue
		}
		switch b[0] {
		case gfDone:
			gs.setFinish(generate.FinishReason(b[1:]), nil)
			gs.st.Close()
			return generate.Token{}, false
		case gfError:
			if len(b) < 2 {
				gs.fail(errors.New("malformed generate error frame"))
				return generate.Token{}, false
			}
			gs.setFinish(generate.FinishClosed, errOfStatus(b[1], b[2:]))
			gs.st.Close()
			return generate.Token{}, false
		default: // a token frame, or rejected by the parser as an unknown kind
			toks, perr := parseTokenFrame(gs.pend, b)
			if perr != nil {
				gs.fail(perr)
				return generate.Token{}, false
			}
			gs.pend, gs.next = toks, 1
			return toks[0], true
		}
	}
}

// Finish implements generate.Stream; valid once Next returned false.
func (gs *GenerateStream) Finish() (generate.FinishReason, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.finish, gs.err
}

// Buffered implements generate.Stream: the decoded tokens Next has left.
func (gs *GenerateStream) Buffered() int {
	if gs.cancelled.Load() {
		return 0
	}
	return len(gs.pend) - gs.next
}

// Cancel implements generate.Stream: tearing the stream down resets it on
// the server, whose watcher cancels the sequence and frees its slot.
func (gs *GenerateStream) Cancel() {
	gs.cancelled.Store(true)
	gs.st.Close()
}

func (gs *GenerateStream) setFinish(reason generate.FinishReason, err error) {
	gs.mu.Lock()
	if !gs.done {
		gs.done, gs.finish, gs.err = true, reason, err
	}
	gs.mu.Unlock()
}

func (gs *GenerateStream) fail(err error) {
	gs.setFinish(generate.FinishClosed, fmt.Errorf("%w: %v", ErrClosed, err))
	gs.st.Close()
}

var _ generate.Stream = (*GenerateStream)(nil)
