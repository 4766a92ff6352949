package serving

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// Streaming predict: one persistent rpc stream carries many predict
// request/response pairs — two data frames on an already-open channel per
// request, where a unary call would pay frame, dispatch, handler goroutine
// and response frame each time. Requests on one stream are served in order;
// routers keep a small pool of streams per replica for concurrency.
//
// Request frame:
//
//	uvarint reqID | uvarint budget µs (0 = none) | uvarint trace | uvarint span | uvarint len(model) | model | tensor
//
// trace/span are the caller's telemetry ids (0 when untraced — one zero byte
// each, so the untraced hot path stays allocation-free and cheap).
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

// statusOf maps a predict outcome onto its wire status byte.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return stOK
	case errors.Is(err, ErrNotFound):
		return stNotFound
	case errors.Is(err, ErrOverloaded):
		return stOverloaded
	case errors.Is(err, ErrDeadline):
		return stDeadline
	case errors.Is(err, ErrBadInput):
		return stBadInput
	case errors.Is(err, ErrClosed):
		return stClosed
	default:
		return stError
	}
}

// errOfStatus is the client-side inverse: canonical statuses return the
// canonical error values themselves (no allocation), stError rebuilds a
// remote-tagged error from the payload text.
func errOfStatus(status byte, text []byte) error {
	switch status {
	case stNotFound:
		return ErrNotFound
	case stOverloaded:
		return ErrOverloaded
	case stDeadline:
		return ErrDeadline
	case stBadInput:
		return ErrBadInput
	case stClosed:
		return ErrClosed
	default:
		if len(text) > 0 {
			return fmt.Errorf("serving: remote predict error: %s", text)
		}
		return errors.New("serving: remote predict error")
	}
}

// servePredictStream serves one client's predict stream until it closes.
// Everything per-request is reused across the loop: the receive buffer, the
// response scratch, the interned model name, and the fast-path output
// tensor — with a RowPredictor behind it, the steady state allocates
// nothing.
func servePredictStream(p Predictor, st *rpc.Stream) error {
	rows, _ := p.(RowPredictor)
	var (
		buf, resp []byte
		modelBuf  []byte
		model     string
		scratch   *tensor.Tensor // fast-path row output; nil until first use
		scratchOK bool           // scratch matches the current model
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
			scratch, scratchOK = nil, false
		}
		deadline := budgetDeadline(budget)
		var span *telemetry.Span
		if tsc.Valid() {
			span = telemetry.StartChild(tsc, "stream_predict_serve")
			span.FlowIn(telemetry.FlowID(tsc.Trace, tsc.Span, reqID))
		}

		resp = binary.AppendUvarint(resp[:0], reqID)
		idLen := len(resp)
		in, rest, derr := tensor.DecodePooled(tb)
		if derr != nil || len(rest) != 0 {
			resp = appendStatus(resp, ErrBadInput)
		} else if out, fastErr, fast := rowFastPath(rows, model, in, deadline, &scratch, &scratchOK); fast {
			// Fast path took it (ok or a definite outcome); the input row is
			// ours again.
			tensor.Recycle(in)
			if fastErr != nil {
				resp = appendStatus(resp, fastErr)
			} else {
				resp = append(resp, stOK)
				if resp, err = out.Encode(resp); err != nil {
					resp = appendStatus(resp[:idLen], err)
				}
			}
		} else {
			// Batcher / general path. The input is NOT recycled: on a
			// deadline the batcher's runner may still hold the row.
			out, perr := p.Predict(model, in, deadline)
			if perr != nil {
				resp = appendStatus(resp, perr)
			} else {
				resp = append(resp, stOK)
				if resp, err = out.Encode(resp); err != nil {
					resp = appendStatus(resp[:idLen], err)
				}
			}
		}
		err = st.Send(resp)
		span.End()
		if err != nil {
			return err
		}
	}
}

// rowFastPath tries the RowPredictor route for a rank-1 request. fast=false
// means "not handled here, use Predict"; fast=true means the outcome (out or
// err) is final. The caller's scratch output is (re)built on model change or
// after a hot-swap invalidates its shape.
func rowFastPath(rows RowPredictor, model string, in *tensor.Tensor, deadline time.Time,
	scratch **tensor.Tensor, scratchOK *bool) (*tensor.Tensor, error, bool) {
	if rows == nil || in == nil || in.Rank() != 1 {
		return nil, nil, false
	}
	for attempt := 0; attempt < 2; attempt++ {
		if *scratch == nil {
			if *scratchOK {
				return nil, nil, false // memoized: model has no fast path
			}
			sc, err := rows.NewRowOutput(model)
			*scratchOK = true
			if err != nil {
				return nil, nil, false
			}
			*scratch = sc
		}
		err := rows.PredictRowInto(model, in, *scratch, deadline)
		if errors.Is(err, errNoFastPath) {
			// Hot-swap made the scratch stale (or removed the kernel):
			// rebuild once, then give up to the general path.
			*scratch, *scratchOK = nil, false
			continue
		}
		return *scratch, err, true
	}
	return nil, nil, false
}

// parseStreamPredict splits one request frame; all byte slices alias b.
func parseStreamPredict(b []byte) (reqID, budget uint64, tsc telemetry.SpanContext, model, tb []byte, err error) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict id")
	}
	b = b[n:]
	bud, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict budget")
	}
	b = b[n:]
	tsc.Trace, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict trace id")
	}
	b = b[n:]
	tsc.Span, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict span id")
	}
	b = b[n:]
	ml, n := binary.Uvarint(b)
	if n <= 0 || ml > uint64(len(b)-n) {
		return 0, 0, tsc, nil, nil, errors.New("serving: malformed stream predict model")
	}
	b = b[n:]
	return id, bud, tsc, b[:ml], b[ml:], nil
}

// budgetDeadline turns a request frame's budget (µs, 0 = none) into an
// absolute deadline. The budget is untrusted: past math.MaxInt64 ns the
// Duration multiply wraps negative and a "very long" deadline would expire
// at once, so it saturates there.
func budgetDeadline(budget uint64) time.Time {
	const maxBudget = math.MaxInt64 / uint64(time.Microsecond)
	if budget == 0 {
		return time.Time{}
	}
	if budget > maxBudget {
		budget = maxBudget
	}
	return time.Now().Add(time.Duration(budget) * time.Microsecond)
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
	b := binary.AppendUvarint(ps.wbuf[:0], id)
	var budget uint64
	if !deadline.IsZero() {
		us := time.Until(deadline).Microseconds()
		if us <= 0 {
			return nil, ErrDeadline
		}
		budget = uint64(us)
	}
	b = binary.AppendUvarint(b, budget)
	b = binary.AppendUvarint(b, tsc.Trace)
	b = binary.AppendUvarint(b, tsc.Span)
	b = binary.AppendUvarint(b, uint64(len(model)))
	b = append(b, model...)
	b, err := in.Encode(b)
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

// isNoStreamHandlerErr detects a replica that does not serve a streaming
// method — Router.Generate meets one when a replica's predictor is not a
// Generator, and moves the request on.
func isNoStreamHandlerErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no stream handler")
}
