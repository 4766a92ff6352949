package serving

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
)

// Streaming generation: one rpc stream carries one generated sequence. The
// stream tier's credit window is the transport-level flow control; the
// engine's per-sequence token window is the application-level one — a slow
// remote consumer stalls only its own decode slot, exactly like a local one.
//
// Request frame (client → server, exactly one):
//
//	uvarint budget µs (0 = none) | uvarint trace | uvarint span |
//	uvarint maxTokens | uvarint stopBelowBits (Float64bits) |
//	uvarint len(model) | model | prompt (8-byte LE float64 each)
//
// budget bounds time-to-first-token (the admission deadline); trace/span are
// the caller's telemetry ids as in streaming predict. Any later frame from
// the client — or tearing the stream down (reset) — cancels the sequence.
//
// Response frames (server → client):
//
//	0x00 | uvarint index | uvarint step | 8-byte LE float64   one token
//	0x01 | finish reason text                                 clean finish
//	0x02 | status byte | error text                           error finish
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
func serveGenerateStream(g Generator, st *rpc.Stream) error {
	buf, err := st.Recv(nil)
	if err != nil {
		return err
	}
	req, model, tsc, perr := parseGenerateReq(buf)
	if perr != nil {
		return perr // protocol violation: reset the stream
	}
	var span *telemetry.Span
	if tsc.Valid() {
		span = telemetry.StartChild(tsc, "stream_generate_serve").Arg("model", model)
	}
	defer span.End()

	seq, gerr := g.Generate(model, req)
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
	for {
		tok, ok := seq.Next()
		if !ok {
			break
		}
		resp = append(resp[:0], gfToken)
		resp = binary.AppendUvarint(resp, uint64(tok.Index))
		resp = binary.AppendUvarint(resp, tok.Step)
		resp = binary.LittleEndian.AppendUint64(resp, math.Float64bits(tok.Value))
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

// parseGenerateReq splits the single request frame; model aliases b.
func parseGenerateReq(b []byte) (req generate.Request, model string, tsc telemetry.SpanContext, err error) {
	fail := func(what string) (generate.Request, string, telemetry.SpanContext, error) {
		return generate.Request{}, "", telemetry.SpanContext{}, fmt.Errorf("serving: malformed generate %s", what)
	}
	budget, n := binary.Uvarint(b)
	if n <= 0 {
		return fail("budget")
	}
	b = b[n:]
	tsc.Trace, n = binary.Uvarint(b)
	if n <= 0 {
		return fail("trace id")
	}
	b = b[n:]
	tsc.Span, n = binary.Uvarint(b)
	if n <= 0 {
		return fail("span id")
	}
	b = b[n:]
	maxTok, n := binary.Uvarint(b)
	if n <= 0 {
		return fail("max tokens")
	}
	b = b[n:]
	stopBits, n := binary.Uvarint(b)
	if n <= 0 {
		return fail("stop threshold")
	}
	b = b[n:]
	ml, n := binary.Uvarint(b)
	if n <= 0 || ml > uint64(len(b)-n) {
		return fail("model name")
	}
	b = b[n:]
	model = string(b[:ml])
	b = b[ml:]
	if len(b)%8 != 0 || len(b) == 0 {
		return fail("prompt")
	}
	prompt := make([]float64, len(b)/8)
	for i := range prompt {
		prompt[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	req = generate.Request{
		Prompt:    prompt,
		MaxTokens: int(maxTok),
		StopBelow: math.Float64frombits(stopBits),
		Deadline:  budgetDeadline(budget),
	}
	return req, model, tsc, nil
}

// GenerateStream is the client endpoint of one remote generated sequence.
// It implements generate.Stream, so a relayed sequence consumes exactly like
// a local one.
type GenerateStream struct {
	st   *rpc.Stream
	rbuf []byte

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
	st, err := c.OpenStream(GenerateStreamMethod)
	if err != nil {
		return nil, err
	}
	var budget uint64
	if !req.Deadline.IsZero() {
		us := time.Until(req.Deadline).Microseconds()
		if us <= 0 {
			st.Close()
			return nil, ErrDeadline
		}
		budget = uint64(us)
	}
	b := binary.AppendUvarint(nil, budget)
	b = binary.AppendUvarint(b, tsc.Trace)
	b = binary.AppendUvarint(b, tsc.Span)
	b = binary.AppendUvarint(b, uint64(req.MaxTokens))
	b = binary.AppendUvarint(b, math.Float64bits(req.StopBelow))
	b = binary.AppendUvarint(b, uint64(len(model)))
	b = append(b, model...)
	for _, v := range req.Prompt {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if err := st.Send(b); err != nil {
		st.Close()
		return nil, err
	}
	return &GenerateStream{st: st}, nil
}

// Next implements generate.Stream: it blocks for the next token frame.
func (gs *GenerateStream) Next() (generate.Token, bool) {
	for {
		b, err := gs.st.Recv(gs.rbuf)
		if err != nil {
			if err == io.EOF && gs.cancelled.Load() {
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
		case gfToken:
			p := b[1:]
			idx, n := binary.Uvarint(p)
			if n <= 0 {
				gs.fail("token index")
				return generate.Token{}, false
			}
			p = p[n:]
			step, n := binary.Uvarint(p)
			if n <= 0 || len(p[n:]) != 8 {
				gs.fail("token frame")
				return generate.Token{}, false
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(p[n:]))
			return generate.Token{Index: int(idx), Value: v, Step: step}, true
		case gfDone:
			gs.setFinish(generate.FinishReason(b[1:]), nil)
			gs.st.Close()
			return generate.Token{}, false
		case gfError:
			if len(b) < 2 {
				gs.fail("error frame")
				return generate.Token{}, false
			}
			gs.setFinish(generate.FinishClosed, errOfStatus(b[1], b[2:]))
			gs.st.Close()
			return generate.Token{}, false
		default:
			gs.fail("frame kind")
			return generate.Token{}, false
		}
	}
}

// Finish implements generate.Stream; valid once Next returned false.
func (gs *GenerateStream) Finish() (generate.FinishReason, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.finish, gs.err
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

func (gs *GenerateStream) fail(what string) {
	gs.setFinish(generate.FinishClosed, fmt.Errorf("%w: malformed generate %s", ErrClosed, what))
	gs.st.Close()
}

var _ generate.Stream = (*GenerateStream)(nil)
