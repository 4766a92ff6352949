// Streams: multiplexed, credit-flow-controlled byte streams over one
// length-framed TCP connection per client. Every wire frame carries a stream
// id and a kind byte, so many streams (unary calls, collective ring edges,
// serving predict channels) share the connection — the persistent-channel
// design the TensorFlow whitepaper adopts for tensor traffic.
//
// Flow control is credit-based per stream and direction: a sender may have
// streamWindow data frames outstanding; the receiver re-grants credit as
// the application consumes frames, so one slow stream backpressures its
// sender without stalling the connection for its siblings.
//
// Buffer ownership: frames are read into pooled buffers (wire.GetBuf) owned
// by the mux until delivery; Stream.Recv copies the payload into the
// caller's buffer and recycles the frame immediately, so callers own what
// Recv returns and must not retain transport buffers; RecvFunc instead lends
// the pooled payload to a callback and recycles it when the callback
// returns. Send fully writes the payload before returning, so callers may
// reuse their buffer at once.
package rpc

import (
	"context"
	"encoding/binary"
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

// Stream frame layout, inside one wire length-prefixed frame:
//
//	uvarint stream id | kind byte | payload
const (
	kindOpen   = 1 // payload = method name; client opens a stream
	kindData   = 2 // payload = application bytes
	kindClose  = 3 // graceful end of the sender's direction
	kindReset  = 4 // payload = error text; aborts both directions
	kindCredit = 5 // payload = uvarint count of data frames granted
)

// streamWindow is the per-stream, per-direction flow-control window in data
// frames. Receivers re-grant after consuming half a window, so a steadily
// drained stream never stalls.
const streamWindow = 64

// ErrStreamTimeout reports an expired Recv deadline. The frame may still
// arrive later, so after a timeout the caller should either keep receiving
// or tear the stream down — not treat the stream as positioned.
var ErrStreamTimeout = errors.New("rpc: stream receive timed out")

// ErrStreamClosed reports use of a stream after local close.
var ErrStreamClosed = errors.New("rpc: stream closed")

// StreamHandler serves one inbound stream. Returning nil ends the server
// side gracefully (the peer's Recv sees io.EOF); returning an error resets
// the stream, surfacing the text to the peer.
type StreamHandler func(s *Stream) error

// HandleStream registers a streaming method. Must be called before clients
// open streams for it. Streams and unary calls share one method namespace:
// a name registered twice, by either, panics.
func (s *Server) HandleStream(method string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler %q", method))
	}
	s.handlers[method] = h
}

// OpenStream opens a stream to the server's handler for method, on the
// client's connection.
func (c *Client) OpenStream(method string) (*Stream, error) {
	m, _, err := c.streamMux(context.Background())
	if err != nil {
		return nil, err
	}
	return m.open(method)
}

// streamMux returns the client's live multiplexer and whether it was just
// dialed. One caller dials at a time; the others wait for its mux. The dial
// and the wait for the server's preface end with ctx or with Close — a
// SYN-blackholing peer must fail a call at its deadline, not after the OS
// connect timeout — and the mux is registered before its first read.
func (c *Client) streamMux(ctx context.Context) (*mux, bool, error) {
	if m := c.liveMux(); m != nil {
		return m, false, nil
	}
	select {
	case c.dialing <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-c.dialing }()
	if m := c.liveMux(); m != nil {
		return m, false, nil // dialed by the caller we waited for
	}
	dctx, cancel := context.WithCancel(c.closed) // done at once if closed
	defer cancel()
	defer context.AfterFunc(ctx, cancel)()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", c.addr)
	c.mu.Lock()
	if c.closed.Err() != nil {
		if err == nil {
			conn.Close()
		}
		err = errClientClosed
	}
	if err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	nm := newMux(conn, nil)
	c.smux = nm
	c.mu.Unlock()
	// Wait for the server's preface (serveConn), so a stream opened on this
	// mux is on a connection the server has accepted and tracks — TCP
	// completes a dial before the server's Accept returns.
	stop := context.AfterFunc(dctx, func() { nm.fail(dctx.Err()) })
	buf, err := wire.ReadFramePooled(conn)
	stop()
	if err == nil {
		err = nm.dispatch(buf)
	}
	if err != nil {
		nm.fail(err)
		return nil, false, err
	}
	go nm.readLoop()
	return nm, true, nil
}

func (c *Client) liveMux() *mux {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.smux != nil && c.smux.alive() {
		return c.smux
	}
	return nil
}

// mux multiplexes streams over one connection. The server side (srv != nil)
// accepts OPEN frames and spawns handlers; the client side originates them.
type mux struct {
	conn net.Conn
	srv  *Server

	// Write path: one frame at a time under wmu. whdr and warr are
	// persistent scratch so the vectored write allocates nothing.
	wmu     sync.Mutex
	written atomic.Uint64 // frames fully written: the stuck-call check's progress
	whdr    []byte
	warr    [2][]byte
	wbufs   net.Buffers

	mu      sync.Mutex
	streams map[uint64]*Stream
	nextID  uint64
	failed  error
}

func newMux(conn net.Conn, srv *Server) *mux {
	return &mux{conn: conn, srv: srv, streams: make(map[uint64]*Stream)}
}

func (m *mux) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed == nil
}

func (m *mux) open(method string) (*Stream, error) {
	m.mu.Lock()
	if m.failed != nil {
		err := m.failed
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	st := newStream(m, m.nextID, method)
	m.streams[st.id] = st
	m.mu.Unlock()
	if err := m.writeFrame(st.id, kindOpen, []byte(method)); err != nil {
		m.fail(err)
		return nil, err
	}
	return st, nil
}

// writeFrame frames and writes one stream frame: wire length prefix, then
// uvarint id, kind byte, payload. Header and payload go out in one vectored
// write through persistent buffers.
func (m *mux) writeFrame(id uint64, kind byte, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	hdr := append(m.whdr[:0], 0, 0, 0, 0)
	hdr = binary.AppendUvarint(hdr, id)
	hdr = append(hdr, kind)
	m.whdr = hdr[:0]
	n := int64(len(hdr) - 4 + len(payload))
	if n > wire.MaxMessageSize {
		return wire.ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(hdr, uint32(n))
	if len(payload) == 0 {
		_, err := m.conn.Write(hdr)
		m.written.Add(1)
		return err
	}
	m.warr[0], m.warr[1] = hdr, payload
	m.wbufs = net.Buffers(m.warr[:2])
	_, err := m.wbufs.WriteTo(m.conn)
	m.warr[0], m.warr[1] = nil, nil
	m.written.Add(1)
	return err
}

// writeCredit builds the whole credit frame in the persistent header
// scratch (a stack-side payload would escape through the vectored-write
// fields and put an allocation on the steady-state receive path).
func (m *mux) writeCredit(id uint64, grant int) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	hdr := append(m.whdr[:0], 0, 0, 0, 0)
	hdr = binary.AppendUvarint(hdr, id)
	hdr = append(hdr, kindCredit)
	hdr = binary.AppendUvarint(hdr, uint64(grant))
	m.whdr = hdr[:0]
	binary.BigEndian.PutUint32(hdr, uint32(len(hdr)-4))
	_, err := m.conn.Write(hdr)
	m.written.Add(1)
	return err
}

func (m *mux) lookup(id uint64) *Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streams[id]
}

func (m *mux) remove(id uint64) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

// fail marks the connection dead and aborts every stream on it.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.failed != nil {
		m.mu.Unlock()
		return
	}
	m.failed = err
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	m.conn.Close()
	for _, st := range streams {
		st.remoteClose(err)
	}
}

// readLoop pulls frames off the connection and routes them until the
// connection dies. Runs on the serveConn goroutine server-side and on a
// dedicated goroutine client-side.
func (m *mux) readLoop() {
	for {
		buf, err := wire.ReadFramePooled(m.conn)
		if err != nil {
			m.fail(fmt.Errorf("rpc: stream connection lost: %w", err))
			return
		}
		if err := m.dispatch(buf); err != nil {
			m.fail(err)
			return
		}
	}
}

// dispatch routes one frame. It takes ownership of buf (pooled).
func (m *mux) dispatch(buf []byte) error {
	id, n := binary.Uvarint(buf)
	if n <= 0 || n >= len(buf) {
		wire.PutBuf(buf)
		return errors.New("rpc: malformed stream frame")
	}
	kind := buf[n]
	payload := buf[n+1:]
	switch kind {
	case kindOpen:
		method := string(payload)
		wire.PutBuf(buf)
		return m.accept(id, method)
	case kindData:
		if st := m.lookup(id); st != nil {
			st.deliver(buf, payload)
		} else {
			wire.PutBuf(buf) // stream already gone; drop
		}
	case kindCredit:
		grant, k := binary.Uvarint(payload)
		wire.PutBuf(buf)
		// A receiver grants at most one window at a time; a larger grant
		// could wrap the sender's credit to zero or below.
		if k <= 0 || grant > streamWindow {
			return errors.New("rpc: malformed stream credit frame")
		}
		if st := m.lookup(id); st != nil {
			st.addCredit(int(grant))
		}
	case kindClose:
		st := m.lookup(id)
		wire.PutBuf(buf)
		if st != nil {
			st.remoteClose(nil)
		}
	case kindReset:
		err := resetError(payload)
		wire.PutBuf(buf)
		if st := m.lookup(id); st != nil {
			st.remoteClose(err)
		}
	default:
		wire.PutBuf(buf)
		return fmt.Errorf("rpc: unknown stream frame kind %d", kind)
	}
	return nil
}

// accept handles an OPEN on the server side: register the stream and run
// its handler on its own goroutine (tracked by the server waitgroup — the
// goroutine calling Add holds the connection's own count, so it cannot race
// a finishing Close.Wait).
func (m *mux) accept(id uint64, method string) error {
	if m.srv == nil {
		return errors.New("rpc: unexpected stream OPEN from server")
	}
	m.srv.mu.Lock()
	h := m.srv.handlers[method]
	m.srv.mu.Unlock()
	m.mu.Lock()
	if m.failed != nil {
		m.mu.Unlock()
		return nil
	}
	if _, dup := m.streams[id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("rpc: duplicate stream id %d", id)
	}
	st := newStream(m, id, method)
	m.streams[id] = st
	m.mu.Unlock()
	if h == nil {
		st.finish(fmt.Errorf("rpc: no handler for %q: no stream handler registered", method))
		return nil
	}
	m.srv.wg.Add(1)
	go func() {
		defer m.srv.wg.Done()
		st.finish(invokeStream(h, st))
	}()
	return nil
}

// invokeStream runs a stream handler, converting panics into resets.
func invokeStream(h StreamHandler, st *Stream) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: stream handler panic: %v", r)
		}
	}()
	return h(st)
}

// resetError is the text of a RESET frame: the peer ended the stream on
// purpose (its handler failed, or its caller closed it).
type resetError string

func (e resetError) Error() string { return "rpc: stream reset by peer: " + string(e) }

// rframe is one delivered data frame: the pooled backing buffer plus the
// payload view into it.
type rframe struct{ buf, payload []byte }

// Stream is one bidirectional byte-message stream over a mux.
type Stream struct {
	m      *mux
	id     uint64
	method string

	mu    sync.Mutex
	rcond sync.Cond // receive side: frame arrival, close, deadline
	scond sync.Cond // send side: credit arrival, close

	// Receive state. rq[rhead:] are undelivered frames.
	rq         []rframe
	rhead      int
	consumed   int // frames consumed since the last credit re-grant
	recvErr    error
	recvEOF    bool
	recvClosed bool // peer finished its direction (CLOSE, RESET or conn loss)
	deadline   time.Time
	dlTimer    *time.Timer

	// Send state.
	credit    int
	sendErr   error
	sentClose bool
	removed   bool
}

func newStream(m *mux, id uint64, method string) *Stream {
	st := &Stream{m: m, id: id, method: method, credit: streamWindow}
	st.rcond.L = &st.mu
	st.scond.L = &st.mu
	return st
}

// Method returns the stream's method name.
func (s *Stream) Method() string { return s.method }

// Send ships one data frame, blocking while the peer's flow-control window
// is exhausted. The payload is fully written before return; the caller may
// reuse p immediately.
func (s *Stream) Send(p []byte) error {
	s.mu.Lock()
	if s.credit == 0 && s.sendErr == nil && !s.sentClose {
		// The stall branch only: an unconstrained send costs nothing here,
		// and the AllocsPerRun==0 chunk-relay gate covers that path.
		mCreditStalls.Inc()
		stallStart := time.Now()
		span := telemetry.StartRoot("stream_credit_stall")
		for s.credit == 0 && s.sendErr == nil && !s.sentClose {
			s.scond.Wait()
		}
		span.End()
		mCreditStallSeconds.ObserveSince(stallStart)
	}
	if s.sendErr != nil {
		err := s.sendErr
		s.mu.Unlock()
		return err
	}
	if s.sentClose {
		s.mu.Unlock()
		return ErrStreamClosed
	}
	s.credit--
	s.mu.Unlock()
	if err := s.m.writeFrame(s.id, kindData, p); err != nil {
		s.m.fail(err)
		return err
	}
	return nil
}

// Recv waits for the next data frame and returns its payload copied into
// buf (grown as needed); the caller owns the result, the transport recycles
// its frame buffer before returning. io.EOF reports a graceful close by the
// peer.
func (s *Stream) Recv(buf []byte) ([]byte, error) {
	f, grant, err := s.next()
	if err != nil {
		return nil, err
	}
	out := append(buf[:0], f.payload...)
	s.release(f, grant)
	return out, nil
}

// RecvFunc waits for the next data frame like Recv but lends its payload to
// fn instead of copying it: p aliases the transport's pooled frame buffer,
// valid only until fn returns, after which the frame is recycled. Receivers
// that decode a frame straight into their own values (partition tensors)
// skip Recv's copy this way. fn's error is returned as is.
func (s *Stream) RecvFunc(fn func(p []byte) error) error {
	f, grant, err := s.next()
	if err != nil {
		return err
	}
	ferr := fn(f.payload)
	s.release(f, grant)
	return ferr
}

// next dequeues the next data frame, waiting for one, and reports how much
// credit consuming it re-grants to the peer.
func (s *Stream) next() (rframe, int, error) {
	s.mu.Lock()
	for s.rhead == len(s.rq) {
		if s.recvErr != nil {
			err := s.recvErr
			s.mu.Unlock()
			return rframe{}, 0, err
		}
		if s.recvEOF {
			s.mu.Unlock()
			return rframe{}, 0, io.EOF
		}
		if !s.deadline.IsZero() {
			if !time.Now().Before(s.deadline) {
				s.mu.Unlock()
				return rframe{}, 0, ErrStreamTimeout
			}
			s.armTimerLocked()
		}
		s.rcond.Wait()
	}
	f := s.rq[s.rhead]
	s.rq[s.rhead] = rframe{}
	s.rhead++
	if s.rhead == len(s.rq) {
		s.rq = s.rq[:0]
		s.rhead = 0
	}
	s.consumed++
	grant := 0
	if s.consumed >= streamWindow/2 {
		grant, s.consumed = s.consumed, 0
	}
	s.mu.Unlock()
	return f, grant, nil
}

// release recycles a consumed frame and sends the credit it re-grants.
func (s *Stream) release(f rframe, grant int) {
	wire.PutBuf(f.buf)
	if grant > 0 {
		if err := s.m.writeCredit(s.id, grant); err != nil {
			s.m.fail(err)
		}
	}
}

// SetRecvDeadline bounds subsequent Recv calls; the zero time clears the
// bound.
func (s *Stream) SetRecvDeadline(t time.Time) {
	s.mu.Lock()
	s.deadline = t
	if t.IsZero() && s.dlTimer != nil {
		s.dlTimer.Stop()
	}
	s.mu.Unlock()
	if !t.IsZero() {
		s.rcond.Broadcast() // waiters re-arm against the new deadline
	}
}

// armTimerLocked (re)points the stream's single reusable timer at the
// current deadline, so waiting never allocates a timer per call.
func (s *Stream) armTimerLocked() {
	d := time.Until(s.deadline)
	if s.dlTimer == nil {
		s.dlTimer = time.AfterFunc(d, s.onDeadline)
	} else {
		s.dlTimer.Reset(d)
	}
}

func (s *Stream) onDeadline() {
	s.rcond.Broadcast() // waiters check the wall clock themselves
}

// deliver hands an arrived data frame to the stream, taking ownership of
// the pooled buf.
func (s *Stream) deliver(buf, payload []byte) {
	s.mu.Lock()
	if s.recvErr != nil || s.recvEOF {
		s.mu.Unlock()
		wire.PutBuf(buf) // receiver gone; drop
		return
	}
	if s.rhead > 0 && s.rhead == len(s.rq) {
		s.rq = s.rq[:0]
		s.rhead = 0
	} else if s.rhead > 4*streamWindow {
		n := copy(s.rq, s.rq[s.rhead:])
		s.rq = s.rq[:n]
		s.rhead = 0
	}
	s.rq = append(s.rq, rframe{buf: buf, payload: payload})
	s.mu.Unlock()
	s.rcond.Signal()
}

func (s *Stream) addCredit(n int) {
	s.mu.Lock()
	s.credit += n
	s.mu.Unlock()
	s.scond.Broadcast()
}

// CloseSend half-closes the stream: the peer's Recv sees io.EOF once the
// frames in flight drain. Receiving stays possible.
func (s *Stream) CloseSend() error {
	s.mu.Lock()
	if s.sentClose || s.sendErr != nil {
		s.mu.Unlock()
		return nil
	}
	s.sentClose = true
	s.mu.Unlock()
	s.scond.Broadcast()
	err := s.m.writeFrame(s.id, kindClose, nil)
	s.maybeRemove()
	return err
}

var resetByCaller = []byte("closed by caller")

// Close aborts the stream in both directions: the peer sees a reset, local
// Send and Recv fail with ErrStreamClosed.
func (s *Stream) Close() error { return s.end(kindReset, resetByCaller) }

// finish ends the server side after its handler returns: nil closes
// gracefully, an error resets with its text.
func (s *Stream) finish(err error) {
	if err != nil {
		s.end(kindReset, []byte(err.Error()))
	} else {
		s.end(kindClose, nil)
	}
}

// end finishes the stream locally, dropping inbound frames still queued,
// and tells the peer with one frame of kind (none when kind is 0) unless
// its send direction has already ended.
func (s *Stream) end(kind byte, payload []byte) error {
	s.mu.Lock()
	send := kind != 0 && !s.sentClose && s.sendErr == nil
	s.sentClose = true
	if s.recvErr == nil {
		s.recvErr = ErrStreamClosed
	}
	s.drainLocked()
	if s.dlTimer != nil {
		s.dlTimer.Stop()
	}
	s.mu.Unlock()
	s.rcond.Broadcast()
	s.scond.Broadcast()
	var err error
	if send {
		err = s.m.writeFrame(s.id, kind, payload)
	}
	s.maybeRemove()
	return err
}

// remoteClose records the peer finishing its direction: gracefully
// (err == nil, Recv drains then reports io.EOF) or abnormally (both
// directions fail with err).
func (s *Stream) remoteClose(err error) {
	s.mu.Lock()
	s.recvClosed = true
	switch {
	case err == nil:
		s.recvEOF = true
	case s.recvEOF:
		// The peer already half-closed gracefully; a later error (the
		// connection being torn down after the CLOSE) must not clobber the
		// clean EOF or drop frames still queued ahead of it. Only sending is
		// dead.
		if s.sendErr == nil {
			s.sendErr = err
		}
	default:
		if s.recvErr == nil {
			s.recvErr = err
		}
		if s.sendErr == nil {
			s.sendErr = err
		}
		s.drainLocked()
	}
	s.mu.Unlock()
	s.rcond.Broadcast()
	s.scond.Broadcast()
	s.maybeRemove()
}

// drainLocked recycles every undelivered frame.
func (s *Stream) drainLocked() {
	for i := s.rhead; i < len(s.rq); i++ {
		wire.PutBuf(s.rq[i].buf)
		s.rq[i] = rframe{}
	}
	s.rq = s.rq[:0]
	s.rhead = 0
}

// maybeRemove unregisters the stream from the mux once both directions are
// finished, so ids don't leak on long-lived connections.
func (s *Stream) maybeRemove() {
	s.mu.Lock()
	done := (s.sentClose || s.sendErr != nil) && (s.recvClosed || s.recvErr != nil)
	already := s.removed
	if done {
		s.removed = true
	}
	s.mu.Unlock()
	if done && !already {
		s.m.remove(s.id)
	}
}
