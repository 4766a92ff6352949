// Package rpc is the runtime's service-client layer: length-framed binary
// messages (internal/wire) over TCP, with a method-dispatching server and a
// client that keeps one multiplexed connection per server. Every exchange is
// a stream on that connection (stream.go): a unary call is one short stream
// carrying one request frame and one response frame, the way gRPC carries
// unary calls on its HTTP/2 channel. It fills the role gRPC plays in
// TensorFlow — including staying responsible for "administrative purposes"
// (connection establishment, health checks) even when tensor payloads
// notionally ride a faster transport, exactly as the paper describes.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/wire"
)

// Handler serves one method: decode request, act, encode response.
type Handler func(req []byte) ([]byte, error)

// CtxHandler is a deadline-aware handler: ctx carries the caller's remaining
// per-call budget (propagated in the request frame), so slow work can stop
// instead of computing an answer nobody is waiting for.
type CtxHandler func(ctx context.Context, req []byte) ([]byte, error)

// Server listens on a TCP address and dispatches the streams its clients
// open — unary calls and long-lived streams alike — to handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]StreamHandler
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup
	conns    map[net.Conn]struct{}
	inflight sync.WaitGroup // calls between request decode and response write
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]StreamHandler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a method. Must be called before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.HandleCtx(method, func(_ context.Context, req []byte) ([]byte, error) { return h(req) })
}

// HandleCtx registers a deadline-aware method: the handler's context expires
// when the caller's per-call deadline (CallContext) does. The method is
// served as a stream that reads one request frame and writes one response
// frame. A call counts as in flight from its request's arrival to its
// response's write, so Close drains it; once Close has begun, new calls are
// answered "server shutting down".
func (s *Server) HandleCtx(method string, h CtxHandler) {
	s.HandleStream(method, func(st *Stream) error {
		// The request frame is lent, not copied: it stays valid through the
		// handler and the encoding of its response.
		return st.RecvFunc(func(frame []byte) error {
			s.mu.Lock()
			closed := s.closed
			if !closed {
				s.inflight.Add(1)
			}
			s.mu.Unlock()
			if closed {
				return st.Send(encodeResponse(nil, errors.New("rpc: server shutting down")))
			}
			defer s.inflight.Done()
			return st.Send(encodeResponse(serveCall(h, method, frame)))
		})
	})
}

// serveCall decodes one request frame and runs its handler under the
// caller's budget. A caller that propagated trace ids gets a server-side
// span parented to its call span; the handler's context carries it so
// nested calls extend the same trace.
func serveCall(h CtxHandler, method string, frame []byte) ([]byte, error) {
	_, req, budget, sc, err := decodeRequest(frame)
	if err != nil {
		return nil, err
	}
	mServed.Inc()
	ctx := context.Background()
	if sc.Valid() {
		span := telemetry.StartChild(sc, "rpc_serve").Arg("method", method)
		span.FlowIn(sc.Span)
		defer span.End()
		ctx = telemetry.ContextWith(ctx, span)
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	return invoke(h, ctx, req)
}

// Listen binds the address (use "127.0.0.1:0" for tests) and starts the
// accept loop in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn runs one client connection's multiplexer until the connection
// dies. Each stream the client opens on it, unary call or not, gets its own
// handler goroutine, so a slow call never holds up its siblings.
func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// The preface: an empty CREDIT frame on stream 0, which no stream uses.
	// A dialing client waits for it (streamMux) and then carries on.
	m := newMux(conn, s)
	if m.writeCredit(0, 0) == nil {
		m.readLoop()
	}
}

// invoke runs one handler, converting a panic into a call error: a server
// hosts many subsystems' methods (ops, collectives, serving), and one
// malformed request must fail its own call, not the whole task.
func invoke(h CtxHandler, ctx context.Context, req []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(ctx, req)
}

// Close drains then stops the server: it closes the listener, rejects calls
// that arrive from here on, waits for every in-flight call's response to be
// written, then force-closes the connections (clients keep theirs open), which
// ends the streams still open on them, and joins the serving goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.inflight.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Request frame: field 1 = method, field 2 = payload, field 3 = remaining
// per-call budget in microseconds (0/absent = no deadline; a duration, so
// peers need no clock agreement), fields 4/5 = trace and span id of the
// caller's span (absent when untraced), so one request is one trace.
func encodeRequest(method string, req []byte, budget time.Duration, sc telemetry.SpanContext) []byte {
	e := wire.NewEncoder()
	e.String(1, method)
	e.BytesField(2, req)
	if budget > 0 {
		e.Uint(3, uint64(budget/time.Microsecond))
	}
	if sc.Valid() {
		e.Uint(4, sc.Trace)
		e.Uint(5, sc.Span)
	}
	return e.Bytes()
}

func decodeRequest(frame []byte) (method string, req []byte, budget time.Duration, sc telemetry.SpanContext, err error) {
	d := wire.NewDecoder(frame)
	for {
		f, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", nil, 0, sc, err
		}
		switch f {
		case 1:
			if method, err = d.StringVal(); err != nil {
				return "", nil, 0, sc, err
			}
		case 2:
			if req, err = d.Bytes(); err != nil {
				return "", nil, 0, sc, err
			}
		case 3:
			us, err := d.Uint()
			if err != nil {
				return "", nil, 0, sc, err
			}
			budget = time.Duration(us) * time.Microsecond
		case 4:
			if sc.Trace, err = d.Uint(); err != nil {
				return "", nil, 0, sc, err
			}
		case 5:
			if sc.Span, err = d.Uint(); err != nil {
				return "", nil, 0, sc, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return "", nil, 0, sc, err
			}
		}
	}
	if method == "" {
		return "", nil, 0, sc, errors.New("rpc: request missing method")
	}
	return method, req, budget, sc, nil
}

// Response frame: field 1 = error string (empty = ok), field 2 = payload.
func encodeResponse(resp []byte, err error) []byte {
	e := wire.NewEncoder()
	if err != nil {
		e.String(1, err.Error())
	}
	e.BytesField(2, resp)
	return e.Bytes()
}

func decodeResponse(frame []byte) ([]byte, error) {
	d := wire.NewDecoder(frame)
	var payload []byte
	var remoteErr string
	for {
		f, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			if remoteErr, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 2:
			if payload, err = d.Bytes(); err != nil {
				return nil, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	if remoteErr != "" {
		return nil, &RemoteError{Msg: remoteErr}
	}
	return payload, nil
}

// RemoteError is an application-level failure reported by the remote
// handler: the transport round-trip succeeded, so retrying the same request
// on another replica of the same service will fail the same way. Callers
// (the serving router) use this to separate failover-worthy transport
// errors from deterministic application errors.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// IsRemote reports whether err is (or wraps) a remote application error.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Client issues calls and opens streams to one server address, all over one
// multiplexed connection, dialed on first use and re-dialed after it fails;
// concurrent calls are concurrent streams on it. Close fails the connection,
// so a Call blocked on an unresponsive peer returns an error instead of
// pinning its caller (collective teardown relies on this to cascade).
type Client struct {
	addr    string
	closed  context.Context // done once Close runs
	close   context.CancelFunc
	dialing chan struct{} // one slot: held while dialing the mux
	mu      sync.Mutex
	smux    *mux // nil until the first call or stream; replaced once it fails
}

var (
	errClientClosed = errors.New("rpc: client closed")
	errCallStuck    = errors.New("rpc: connection failed: no write progress while a call's request waited")
)

// stuckWriteGrace is how long a connection may make no write progress, once
// a call's ctx ended before its request went out, before it is failed.
const stuckWriteGrace = 250 * time.Millisecond

// Dial creates a client for the address; the connection opens lazily.
func Dial(addr string) *Client {
	c := &Client{addr: addr, dialing: make(chan struct{}, 1)}
	c.closed, c.close = context.WithCancel(context.Background())
	return c
}

// Call sends one request and waits for the response (no deadline).
func (c *Client) Call(method string, req []byte) ([]byte, error) {
	return c.CallContext(context.Background(), method, req)
}

// CallContext sends one request bounded by ctx: the remaining budget rides
// in the request frame (so the server's handler context expires with ours);
// if ctx ends first, the call resets its own stream — the connection and its
// other streams carry on — and returns ctx's error. A request the connection
// cannot write at all (its peer stopped reading) fails the connection within
// stuckWriteGrace. This is how serving request timeouts propagate instead of
// blocking forever on a stuck or partitioned peer.
func (c *Client) CallContext(ctx context.Context, method string, req []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return nil, context.DeadlineExceeded
		}
	}
	for {
		resp, retry, err := c.callOnce(ctx, method, req, budget)
		if retry && ctx.Err() == nil {
			continue
		}
		// The server's deadline is never earlier than ours, so a call that
		// failed once ours has passed failed by it — even when the server's
		// error came back before ctx's timer fired.
		if dl, ok := ctx.Deadline(); ok && err != nil && !time.Now().Before(dl) {
			err = context.DeadlineExceeded
		}
		return resp, err
	}
}

// callOnce performs one request exchange on a stream of its own. retry=true
// means the request never left this process: the OPEN failed to write on a
// connection that looked alive (its peer restarted since it was dialed), so
// the caller re-issues on a fresh dial.
func (c *Client) callOnce(ctx context.Context, method string, req []byte, budget time.Duration) (resp []byte, retry bool, err error) {
	mCalls.Inc()
	defer func() {
		if err != nil {
			mCallErrors.Inc()
		}
	}()
	// When the caller's context carries a span, this attempt becomes a child
	// whose ids ride the frame; the server parents its handler span to it,
	// and the flow pair draws the cross-process arrow.
	span := telemetry.SpanFromContext(ctx).Child("rpc_call").Arg("method", method)
	defer span.End()
	sc := span.Context()
	m, fresh, err := c.streamMux(ctx)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err() // the dial was cut short by ctx
		}
		return nil, false, err
	}
	// Once the request is out, ctx ending resets just this call's stream. A
	// request not yet out waits behind, or is itself, a write the peer may
	// not be taking: a connection whose writes make no progress for
	// stuckWriteGrace is failed, which frees them all.
	var sent atomic.Pointer[Stream]
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() {
			if st := sent.Load(); st != nil {
				st.Close()
				return
			}
			n := m.written.Load()
			time.Sleep(stuckWriteGrace)
			if sent.Load() == nil && m.written.Load() == n {
				m.fail(errCallStuck)
			}
		})()
	}
	st, err := m.open(method)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, !fresh, err
	}
	// A call that got its response leaves the server nothing to be told: its
	// handler has already finished the stream.
	defer st.end(0, nil)
	span.FlowOut(sc.Span)
	err = st.Send(encodeRequest(method, req, budget, sc))
	sent.Store(st)
	var frame []byte
	if err == nil {
		if err = ctx.Err(); err == nil { // else it ended while the request queued
			frame, err = st.Recv(nil)
		}
	}
	var reset resetError
	switch {
	case err == nil:
		resp, err = decodeResponse(frame)
		return resp, false, err
	case ctx.Err() != nil:
		return nil, false, ctx.Err()
	case errors.As(err, &reset):
		// The server answered by resetting the call's stream: it has no
		// handler for the method.
		return nil, false, &RemoteError{Msg: string(reset)}
	}
	return nil, false, err
}

// Close fails the client's connection — idle or mid-call alike, so blocked
// calls and stream operations fail fast — and aborts a dial in progress.
func (c *Client) Close() {
	c.mu.Lock()
	c.close()
	m := c.smux
	c.smux = nil
	c.mu.Unlock()
	if m != nil {
		m.fail(errClientClosed)
	}
}
