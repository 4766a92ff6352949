package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// Streaming predict: one persistent rpc stream carries many predict
// request/response pairs — two data frames on an already-open channel per
// request, where a unary call would pay frame, dispatch, handler goroutine
// and response frame each time. Requests on one stream are served in order;
// routers keep a small pool of streams per replica for concurrency.
//
// Request frame:
//
//	uvarint reqID | header | tensor
//
// where header is the request header both stream methods share (parseHeader).
//
// Response frame:
//
//	uvarint reqID | status byte | payload
//
// where status 0 carries the result tensor and any other status an optional
// error text. reqIDs increase per stream; a response with an old id is a
// late answer to a request whose client-side deadline already expired, and
// is skipped. The status byte — not error-string matching — carries the
// canonical outcome across the wire, so classification is exact.
const PredictStreamMethod = "ServingPredictStream"

// Streaming predict status bytes.
const (
	stOK         = 0
	stNotFound   = 1
	stOverloaded = 2
	stDeadline   = 3
	stBadInput   = 4
	stClosed     = 5
	stError      = 6 // payload = error text
)

// canonicalErrs indexes the canonical errors by their status byte: the one
// classification statusOf, errOfStatus, HTTPStatus and isTransportErr share.
var canonicalErrs = [...]error{
	stNotFound: ErrNotFound, stOverloaded: ErrOverloaded, stDeadline: ErrDeadline,
	stBadInput: ErrBadInput, stClosed: ErrClosed,
}

// statusOf maps a request outcome onto its wire status byte.
func statusOf(err error) byte {
	if err == nil {
		return stOK
	}
	for s, canon := range canonicalErrs {
		if canon != nil && errors.Is(err, canon) {
			return byte(s)
		}
	}
	return stError
}

// errOfStatus is the client-side inverse: canonical statuses return the
// canonical error values themselves (no allocation), stError rebuilds a
// remote-tagged error from the payload text.
func errOfStatus(status byte, text []byte) error {
	if int(status) < len(canonicalErrs) && canonicalErrs[status] != nil {
		return canonicalErrs[status]
	}
	if len(text) > 0 {
		return fmt.Errorf("serving: remote predict error: %s", text)
	}
	return errors.New("serving: remote predict error")
}

// servePredictStream serves one client's predict stream until it closes.
// Every request reaches the model through p.Predict — a local Service's
// batcher admits, queues and counts streamed rows exactly as HTTP ones.
// Everything per-request is reused across the loop: the receive buffer, the
// response scratch and the interned model name; the decoded input and the
// answer go back to the tensor pool once the response is encoded (Predict
// returns only when no runner still holds the row), so with a row kernel
// behind the batcher the steady state allocates nothing.
func servePredictStream(p Predictor, st *rpc.Stream) error {
	var (
		buf, resp []byte
		modelBuf  []byte
		model     string
	)
	for {
		var err error
		buf, err = st.Recv(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		reqID, budget, tsc, mb, tb, perr := parseStreamPredict(buf)
		if perr != nil {
			return perr // protocol violation: reset the stream
		}
		if !bytes.Equal(mb, modelBuf) {
			modelBuf = append(modelBuf[:0], mb...)
			model = string(mb)
		}
		deadline := budgetDeadline(budget, time.Microsecond)
		var span *telemetry.Span
		if tsc.Valid() {
			span = telemetry.StartChild(tsc, "stream_predict_serve")
			span.FlowIn(telemetry.FlowID(tsc.Trace, tsc.Span, reqID))
		}

		resp = binary.AppendUvarint(resp[:0], reqID)
		idLen := len(resp)
		var out *tensor.Tensor
		in, rest, err := tensor.DecodePooled(tb)
		if err != nil || len(rest) != 0 {
			err = ErrBadInput
		} else {
			out, err = p.Predict(model, in, deadline)
		}
		if err == nil {
			if resp, err = out.Encode(append(resp, stOK)); err != nil {
				resp = resp[:idLen]
			}
		}
		if err != nil {
			resp = appendStatus(resp, err)
		}
		tensor.Recycle(in)
		tensor.Recycle(out)
		err = st.Send(resp)
		span.End()
		if err != nil {
			return err
		}
	}
}

// parseStreamPredict splits one predict request frame; all byte slices
// alias b.
func parseStreamPredict(b []byte) (reqID, budget uint64, tsc telemetry.SpanContext, model, tb []byte, err error) {
	reqID, n := wire.Uvarint(b)
	if n <= 0 {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict id")
	}
	budget, tsc, model, tb, err = parseHeader(b[n:])
	return reqID, budget, tsc, model, tb, err
}

// errMalformedHeader is a protocol violation: the server resets the stream.
var errMalformedHeader = errors.New("serving: malformed request header")

// parseHeader splits off the request header both stream methods' request
// frames carry (predict after its reqID, generate first):
//
//	uvarint budget µs (0 = none) | uvarint trace | uvarint span | uvarint len(model) | model
//
// budget is the time the caller had left when it sent the frame
// (budgetDeadline turns it back into a deadline); trace/span are the
// caller's telemetry ids (0 when untraced — one zero byte each, so the
// untraced hot path stays allocation-free and cheap). Every uvarint must be
// minimal, so an accepted header re-encodes through appendHeader to the same
// bytes. model and rest alias b.
func parseHeader(b []byte) (budget uint64, tsc telemetry.SpanContext, model, rest []byte, err error) {
	var v [4]uint64 // budget, trace, span, len(model)
	for i := range v {
		var n int
		if v[i], n = wire.Uvarint(b); n <= 0 {
			return 0, tsc, nil, nil, errMalformedHeader
		}
		b = b[n:]
	}
	if v[3] > uint64(len(b)) {
		return 0, tsc, nil, nil, errMalformedHeader
	}
	return v[0], telemetry.SpanContext{Trace: v[1], Span: v[2]}, b[:v[3]], b[v[3]:], nil
}

// appendHeader is the client half of parseHeader.
func appendHeader(b []byte, budget uint64, tsc telemetry.SpanContext, model string) []byte {
	b = binary.AppendUvarint(b, budget)
	b = binary.AppendUvarint(b, tsc.Trace)
	b = binary.AppendUvarint(b, tsc.Span)
	b = binary.AppendUvarint(b, uint64(len(model)))
	return append(b, model...)
}

// budgetOf is the client half of budgetDeadline: the µs left until deadline
// (0 = none). ok is false once the deadline has passed.
func budgetOf(deadline time.Time) (budget uint64, ok bool) {
	if deadline.IsZero() {
		return 0, true
	}
	us := time.Until(deadline).Microseconds()
	return uint64(us), us > 0
}

// budgetDeadline turns a budget of n units (0 = none) — a request header's
// µs, HTTP's X-Deadline-Ms — into an absolute deadline. The budget is
// untrusted: past math.MaxInt64 ns the Duration multiply wraps negative and
// a "very long" deadline would expire at once, so it saturates there.
func budgetDeadline(n uint64, unit time.Duration) time.Time {
	if n == 0 {
		return time.Time{}
	}
	n = min(n, uint64(math.MaxInt64/unit))
	return time.Now().Add(time.Duration(n) * unit)
}

// appendStatus appends an error's status byte plus, for non-canonical
// errors, its text.
func appendStatus(resp []byte, err error) []byte {
	s := statusOf(err)
	resp = append(resp, s)
	if s == stError {
		resp = append(resp, err.Error()...)
	}
	return resp
}

// errStreamGone marks a PredictStream whose underlying stream already
// failed; callers open a fresh one.
var errStreamGone = errors.New("serving: predict stream is broken")

// PredictStream is one client endpoint of a streaming predict channel. One
// request is in flight at a time (Predict serializes); concurrency comes
// from pooling several streams, which the Router does per replica.
type PredictStream struct {
	mu     sync.Mutex
	st     *rpc.Stream
	nextID uint64
	wbuf   []byte
	rbuf   []byte
	broken bool
}

// OpenPredictStream opens a streaming predict channel on the client's mux
// connection.
func OpenPredictStream(c *rpc.Client) (*PredictStream, error) {
	st, err := c.OpenStream(PredictStreamMethod)
	if err != nil {
		return nil, err
	}
	return &PredictStream{st: st}, nil
}

// Close tears the stream down.
func (ps *PredictStream) Close() error { return ps.st.Close() }

// Broken reports whether the stream has failed and should be discarded.
// A deadline expiry does not break the stream: the late response is skipped
// by the next request's id check.
func (ps *PredictStream) Broken() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.broken
}

// Predict issues one predict over the stream and waits for its answer.
// Results may come from the tensor pool; callers done with one before it
// escapes may Recycle it. Canonical serving errors come back as their
// canonical values (exact status bytes, not string matching).
func (ps *PredictStream) Predict(model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	return ps.PredictTraced(telemetry.SpanContext{}, model, in, deadline)
}

// PredictTraced is Predict with the caller's span context riding the request
// frame: the server's per-request span joins the caller's trace, linked by a
// flow id derived from (trace, span, reqID) on both ends. A zero context
// costs two zero bytes on the wire and nothing else.
func (ps *PredictStream) PredictTraced(tsc telemetry.SpanContext, model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.broken {
		return nil, errStreamGone
	}
	span := telemetry.StartChild(tsc, "stream_predict")
	if !tsc.Valid() {
		span = nil // untraced caller: no client-side span either
	}
	defer span.End()
	tsc = span.Context()
	ps.nextID++
	id := ps.nextID
	budget, ok := budgetOf(deadline)
	if !ok {
		return nil, ErrDeadline
	}
	b, err := in.Encode(appendHeader(binary.AppendUvarint(ps.wbuf[:0], id), budget, tsc, model))
	ps.wbuf = b
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if err := ps.st.Send(b); err != nil {
		ps.broken = true
		return nil, err
	}
	span.FlowOut(telemetry.FlowID(tsc.Trace, tsc.Span, id))
	ps.st.SetRecvDeadline(deadline)
	for {
		rb, err := ps.st.Recv(ps.rbuf)
		if err != nil {
			if err == rpc.ErrStreamTimeout {
				// The server will still answer; the id check on the next
				// request skips the late response. The stream stays usable.
				return nil, ErrDeadline
			}
			ps.broken = true
			if err == io.EOF {
				return nil, fmt.Errorf("%w (stream)", ErrClosed)
			}
			return nil, err
		}
		ps.rbuf = rb
		respID, n := binary.Uvarint(rb)
		if n <= 0 || n >= len(rb) {
			ps.broken = true
			return nil, errors.New("serving: malformed stream predict response")
		}
		if respID < id {
			continue // late answer to a timed-out predecessor
		}
		if respID != id {
			ps.broken = true
			return nil, errors.New("serving: stream predict response id skew")
		}
		status, payload := rb[n], rb[n+1:]
		if status != stOK {
			return nil, errOfStatus(status, payload)
		}
		out, rest, derr := tensor.DecodePooled(payload)
		if derr != nil || len(rest) != 0 {
			ps.broken = true
			return nil, fmt.Errorf("serving: bad stream predict payload: %v", derr)
		}
		return out, nil
	}
}
