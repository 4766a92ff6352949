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
// The reader role: the goroutine that waits for a frame is the one that
// reads it. One goroutine at a time holds a connection's reader role and
// reads through the connection's one buffered reader, so a small frame costs
// one read syscall. A receiver whose queue is empty takes the role when it
// is free; while it holds it, it routes every frame it reads — other
// streams' frames go to their queues and wake their receivers — until its
// own arrives, then hands the role to the longest-waiting receiver, or
// leaves it free. The connection's readLoop reads only while no receiver
// does: it holds the role from the start, gives it up once a receiver that
// keeps receiving small frames is waiting, and takes it back after the role
// has stayed free for readIdle, so OPENs, credits and a dead peer are still
// seen on a connection nobody waits on. Bulk frames (larger than the read
// buffer) are read ahead by readLoop: their receiver hands the role back to
// it, so the next one comes off the socket while the last is consumed. A receiver that gives up while it reads (its
// deadline, Close, a cancelled call, Client.Close) is interrupted between
// reads, never inside the frame: the part of a frame already read stays
// with the connection, and the next reader finishes it.
//
// Buffer ownership: frames are read into pooled buffers (wire.GetBuf) owned
// by the mux until delivery; Stream.Recv copies the payload into the
// caller's buffer and recycles the frame immediately, so callers own what
// Recv returns and must not retain transport buffers; RecvFunc instead lends
// the pooled payload to a callback and recycles it when the callback
// returns. The connection's read buffer belongs to whoever holds the reader
// role. Send fully writes the payload before returning, so callers may
// reuse their buffer at once.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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

// readIdle is how long the reader role must stay free before readLoop takes
// it back. It bounds how late a frame no receiver waits for (an OPEN, a
// credit, a dead peer's EOF) is read, and how often readLoop looks at a
// connection whose receivers keep the role busy. A receiver that is back
// within it reads its next frame itself; one that stays away longer finds
// the frame already read for it.
const readIdle = 250 * time.Microsecond

// readBufSize is a connection's read buffer: a frame up to this size that
// has arrived whole costs one read syscall, and larger (bulk) frames are
// read straight into their pooled buffer.
const readBufSize = 32 << 10

// aLongTimeAgo is the read deadline that interrupts the reader.
var aLongTimeAgo = time.Unix(1, 0)

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
// connect timeout — and the mux is registered only once the preface has
// arrived, so a dial that one caller's ctx cuts short fails no other
// caller's streams.
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
	c.mu.Unlock()
	nm := newMux(conn, nil)
	// Wait for the server's preface (serveConn), so a stream opened on this
	// mux is on a connection the server has accepted and tracks — TCP
	// completes a dial before the server's Accept returns.
	stop := context.AfterFunc(dctx, func() { nm.fail(dctx.Err()) })
	buf, err := nm.fr.Next() // readLoop's role, before readLoop starts
	stop()
	if err == nil {
		err = nm.dispatch(buf)
	}
	c.mu.Lock()
	if err == nil && c.closed.Err() != nil {
		err = errClientClosed
	}
	if err != nil {
		c.mu.Unlock()
		nm.fail(err)
		return nil, false, err
	}
	c.smux = nm
	c.mu.Unlock()
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

	// fr is read by the holder of the reader role only.
	fr *wire.FrameReader

	// mu guards the stream table, every stream's receive side and the
	// reader role, so routing a frame and waking its receiver take one lock.
	mu      sync.Mutex
	streams map[uint64]*Stream
	nextID  uint64
	failed  error

	// The reader role. While reading is set, leader reads fr, or readLoop
	// does when leader is nil; gen counts every change of hands.
	reading bool
	leader  *Stream
	gen     uint64
	waiters []*Stream // receivers parked on an empty queue, oldest first
	// yield: readLoop's last frame was a small one for a waiting receiver
	// that has received before, so it will come back to read for itself.
	yield bool
	// interrupted: a past read deadline is set on conn to stop a reader
	// that gave up; the next reader clears it.
	interrupted bool
	parked      bool          // readLoop waits for the role to be let go
	kick        chan struct{} // wakes readLoop: the role came back, let go, or the mux failed
}

func newMux(conn net.Conn, srv *Server) *mux {
	return &mux{
		conn: conn, srv: srv, streams: make(map[uint64]*Stream),
		fr:      wire.NewFrameReader(conn, readBufSize),
		reading: true, // readLoop's, until a receiver takes over
		kick:    make(chan struct{}, 1),
	}
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
	m.kickLocked()
	m.mu.Unlock()
	m.conn.Close()
	for _, st := range streams {
		st.remoteClose(err)
	}
}

// readLoop reads the connection while no receiver does, until the
// connection dies. It runs on the serveConn goroutine server-side and on a
// goroutine of its own client-side. Holding the reader role, it routes
// frames and lets the role go once a receiver is waiting that either has
// received before (it will come back to read for itself) or waits behind
// another; free, it takes the role back once it has stayed free for
// readIdle, and while one receiver holds it that long, it sleeps until the
// role is let go.
func (m *mux) readLoop() {
	idle := time.NewTimer(readIdle)
	idle.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	lastGen := m.gen - 1
	for m.failed == nil {
		if m.reading && m.leader == nil {
			m.yield = false
			if err := m.readLocked(); err != nil {
				m.mu.Unlock()
				m.fail(err)
				m.mu.Lock()
				return
			}
			if m.yield || len(m.waiters) > 0 {
				m.releaseLocked(true)
			}
			continue
		}
		held := m.reading && m.gen == lastGen
		lastGen = m.gen
		m.parked = held
		m.mu.Unlock()
		expired := false
		if held {
			<-m.kick
		} else {
			idle.Reset(readIdle)
			select {
			case <-idle.C:
				expired = true
			case <-m.kick:
				idle.Stop()
			}
		}
		m.mu.Lock()
		m.parked = false
		if expired && !m.reading && m.gen == lastGen {
			m.reading = true
			m.gen++
		}
	}
}

// kickLocked wakes readLoop without blocking; a kick it finds stale only
// makes it look again.
func (m *mux) kickLocked() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// readLocked reads and routes one frame, with mu released around the read.
// A read that an interrupt cut short routes nothing and returns nil: the
// caller re-checks why it is reading.
func (m *mux) readLocked() error {
	if m.interrupted {
		m.interrupted = false
		m.conn.SetReadDeadline(time.Time{})
	}
	m.mu.Unlock()
	buf, err := m.fr.Next()
	switch {
	case err == nil:
		err = m.dispatch(buf)
	case errors.Is(err, os.ErrDeadlineExceeded):
		err = nil
	default:
		err = fmt.Errorf("rpc: stream connection lost: %w", err)
	}
	m.mu.Lock()
	return err
}

// leadLocked makes s's receiver the reader — the role is free or was handed
// to it — until s has a frame queued or a reason to stop waiting, then
// passes the role on.
func (m *mux) leadLocked(s *Stream) {
	if s.granted {
		s.granted = false
	} else {
		m.reading, m.leader = true, s
		m.gen++
	}
	m.unqueueLocked(s)
	for s.rhead == len(s.rq) && s.recvErrLocked() == nil {
		if err := m.readLocked(); err != nil {
			m.mu.Unlock()
			m.fail(err)
			m.mu.Lock()
		}
	}
	m.releaseLocked(s.comesBackLocked())
}

// releaseLocked passes the reader role on: to the longest-waiting receiver,
// else free when free is set, else back to readLoop.
func (m *mux) releaseLocked(free bool) {
	m.gen++
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.unqueueLocked(w)
		w.granted = true
		m.leader = w
		w.rcond.Signal()
		return
	}
	m.leader = nil
	if !free {
		m.kickLocked()
		return
	}
	m.reading = false
	if m.parked {
		m.kickLocked()
	}
}

// unqueueLocked drops s from the waiters.
func (m *mux) unqueueLocked(s *Stream) {
	if !s.waiting {
		return
	}
	s.waiting = false
	for i, w := range m.waiters {
		if w == s {
			n := copy(m.waiters[i:], m.waiters[i+1:])
			m.waiters[i+n] = nil
			m.waiters = m.waiters[:i+n]
			return
		}
	}
}

// interruptLocked stops s's receiver if it is reading the connection: a
// read deadline in the past ends its read, and fr keeps the part of a frame
// it had read.
func (m *mux) interruptLocked(s *Stream) {
	if m.reading && m.leader == s && !s.granted {
		m.interrupted = true
		m.conn.SetReadDeadline(aLongTimeAgo)
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
		m.mu.Lock()
		st := m.streams[id]
		if st == nil || !st.deliverLocked(buf, payload) {
			m.mu.Unlock()
			wire.PutBuf(buf) // stream gone or its receiver done; drop
			return nil
		}
		m.mu.Unlock()
		st.rcond.Signal()
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
// its handler on its own goroutine, tracked by the server waitgroup. Add runs
// under mu while the mux is alive, so the connection's serveConn, still in
// readLoop, holds a count: whichever goroutine reads the OPEN, the Add
// cannot race a finishing Close.Wait.
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
	if h != nil {
		m.srv.wg.Add(1)
	}
	m.mu.Unlock()
	if h == nil {
		st.finish(fmt.Errorf("rpc: no handler for %q: no stream handler registered", method))
		return nil
	}
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

	// Send side, under mu.
	mu        sync.Mutex
	scond     sync.Cond // credit arrival, close
	credit    int
	sendErr   error
	sentClose bool

	// Receive side, under m.mu. rq[rhead:] are undelivered frames.
	rcond      sync.Cond // frame arrival, close, deadline, the reader role handed over
	rq         []rframe
	rhead      int
	consumed   int // frames consumed since the last credit re-grant
	recvErr    error
	recvEOF    bool
	recvClosed bool // peer finished its direction (CLOSE, RESET or conn loss)
	recvd      bool // a frame has been consumed: the receiver comes back for more
	waiting    bool // parked in m.waiters
	granted    bool // handed the reader role while parked
	deadline   time.Time
	dlTimer    *time.Timer
	dlAt       time.Time     // when dlTimer fires; zero when it is not armed
	done       chan struct{} // Done's channel, made on first use
	removed    bool
}

func newStream(m *mux, id uint64, method string) *Stream {
	st := &Stream{m: m, id: id, method: method, credit: streamWindow}
	st.rcond.L = &m.mu
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

// next dequeues the next data frame, reading the connection for it when no
// one else is, and reports how much credit consuming it re-grants to the
// peer.
func (s *Stream) next() (rframe, int, error) {
	m := s.m
	m.mu.Lock()
	for s.rhead == len(s.rq) {
		if err := s.recvErrLocked(); err != nil {
			s.unwaitLocked()
			m.mu.Unlock()
			return rframe{}, 0, err
		}
		if !s.deadline.IsZero() {
			s.armTimerLocked()
		}
		if s.granted || !m.reading {
			m.leadLocked(s)
			continue
		}
		if !s.waiting {
			s.waiting = true
			m.waiters = append(m.waiters, s)
		}
		s.rcond.Wait()
	}
	s.unwaitLocked()
	f := s.rq[s.rhead]
	s.rq[s.rhead] = rframe{}
	s.rhead++
	if s.rhead == len(s.rq) {
		s.rq = s.rq[:0]
		s.rhead = 0
	}
	s.recvd = true
	s.consumed++
	grant := 0
	if s.consumed >= streamWindow/2 {
		grant, s.consumed = s.consumed, 0
	}
	m.mu.Unlock()
	return f, grant, nil
}

// recvErrLocked is why a receive that finds no frame queued ends now, or
// nil while it should wait.
func (s *Stream) recvErrLocked() error {
	switch {
	case s.recvErr != nil:
		return s.recvErr
	case s.recvEOF:
		return io.EOF
	case s.m.failed != nil:
		return s.m.failed
	case !s.deadline.IsZero() && !time.Now().Before(s.deadline):
		return ErrStreamTimeout
	}
	return nil
}

// unwaitLocked takes a receiver that stops waiting out of the waiters, and
// passes on the reader role if it was handed it.
func (s *Stream) unwaitLocked() {
	s.m.unqueueLocked(s)
	if s.granted {
		s.granted = false
		s.m.releaseLocked(s.comesBackLocked())
	}
}

// comesBackLocked reports whether s's receiver, leaving with the frame it
// waited for, will soon be back to read the next one itself, so it may leave
// the reader role free: it has received before, and the frame is small. A
// one-frame receiver (a unary call) and one whose stream ended hand the role
// back to readLoop instead, so the frames nobody waits on yet are read at
// once; so does the receiver of a bulk frame, which is busy with it for a
// while, so that readLoop reads the next one off the socket meanwhile.
func (s *Stream) comesBackLocked() bool {
	return s.recvd && s.rhead < len(s.rq) && !bulk(s.rq[s.rhead].buf)
}

// bulk reports whether a frame is larger than the connection's read buffer:
// a bulk frame is read ahead by readLoop rather than by its receiver.
func bulk(frame []byte) bool { return len(frame) > readBufSize }

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
	m := s.m
	m.mu.Lock()
	s.deadline = t
	switch {
	case t.IsZero():
		if s.dlTimer != nil {
			s.dlTimer.Stop()
		}
		s.dlAt = time.Time{}
	case s.waiting || s.granted || m.leader == s:
		s.armTimerLocked() // a receive in progress: bound it now
	}
	m.mu.Unlock()
}

// armTimerLocked points the stream's single reusable timer at the current
// deadline unless it is already armed to fire no later, so waiting never
// allocates a timer per call and a stream that keeps pushing its deadline
// out re-arms once per timer period, not once per receive.
func (s *Stream) armTimerLocked() {
	if !s.dlAt.IsZero() && !s.dlAt.After(s.deadline) {
		return
	}
	s.dlAt = s.deadline
	d := time.Until(s.deadline)
	if s.dlTimer == nil {
		s.dlTimer = time.AfterFunc(d, s.onDeadline)
	} else {
		s.dlTimer.Reset(d)
	}
}

// onDeadline wakes a receiver whose deadline has passed, interrupting its
// read if it holds the reader role, or re-arms for a deadline pushed later.
func (s *Stream) onDeadline() {
	m := s.m
	m.mu.Lock()
	s.dlAt = time.Time{}
	if !s.deadline.IsZero() {
		if !time.Now().Before(s.deadline) {
			m.interruptLocked(s)
		} else if s.waiting || s.granted || m.leader == s {
			s.armTimerLocked()
		}
	}
	m.mu.Unlock()
	s.rcond.Broadcast()
}

// deliverLocked queues an arrived data frame, taking ownership of the
// pooled buf, and reports false when the receiver is done with the stream
// (buf stays the caller's).
func (s *Stream) deliverLocked(buf, payload []byte) bool {
	if s.recvErr != nil || s.recvEOF {
		return false
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
	if s.waiting {
		s.m.unqueueLocked(s)
		if s.recvd && s.m.leader == nil && !bulk(buf) {
			s.m.yield = true
		}
	}
	return true
}

func (s *Stream) addCredit(n int) {
	s.mu.Lock()
	s.credit += n
	s.mu.Unlock()
	s.scond.Broadcast()
}

// Done returns a channel that is closed once the stream's receive direction
// has ended: the peer closed or reset it, the connection failed, or the
// stream was closed here. Frames still queued can be received after it is
// closed.
func (s *Stream) Done() <-chan struct{} {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if s.done == nil {
		s.done = make(chan struct{})
		if s.recvEndedLocked() {
			close(s.done)
		}
	}
	return s.done
}

func (s *Stream) recvEndedLocked() bool { return s.recvClosed || s.recvErr != nil }

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

// end finishes the stream locally, dropping inbound frames still queued and
// interrupting its receiver if it is reading the connection, and tells the
// peer with one frame of kind (none when kind is 0) unless its send
// direction has already ended.
func (s *Stream) end(kind byte, payload []byte) error {
	s.mu.Lock()
	send := kind != 0 && !s.sentClose && s.sendErr == nil
	s.sentClose = true
	s.mu.Unlock()
	m := s.m
	m.mu.Lock()
	ended := s.recvEndedLocked()
	if s.recvErr == nil {
		s.recvErr = ErrStreamClosed
	}
	s.drainLocked()
	if s.dlTimer != nil {
		s.dlTimer.Stop()
		s.dlAt = time.Time{}
	}
	m.interruptLocked(s)
	m.unqueueLocked(s)
	if !ended && s.done != nil {
		close(s.done)
	}
	m.mu.Unlock()
	s.rcond.Broadcast()
	s.scond.Broadcast()
	var err error
	if send {
		err = m.writeFrame(s.id, kind, payload)
	}
	s.maybeRemove()
	return err
}

// remoteClose records the peer finishing its direction: gracefully
// (err == nil, Recv drains then reports io.EOF) or abnormally (both
// directions fail with err).
func (s *Stream) remoteClose(err error) {
	m := s.m
	m.mu.Lock()
	ended := s.recvEndedLocked()
	s.recvClosed = true
	switch {
	case err == nil:
		s.recvEOF = true
	case s.recvEOF:
		// The peer already half-closed gracefully; a later error (the
		// connection being torn down after the CLOSE) must not clobber the
		// clean EOF or drop frames still queued ahead of it. Only sending is
		// dead.
	default:
		if s.recvErr == nil {
			s.recvErr = err
		}
		s.drainLocked()
	}
	m.unqueueLocked(s)
	if !ended && s.done != nil {
		close(s.done)
	}
	m.mu.Unlock()
	s.rcond.Broadcast()
	if err != nil {
		s.mu.Lock()
		if s.sendErr == nil {
			s.sendErr = err
		}
		s.mu.Unlock()
		s.scond.Broadcast()
	}
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
	sendDone := s.sentClose || s.sendErr != nil
	s.mu.Unlock()
	if !sendDone {
		return
	}
	m := s.m
	m.mu.Lock()
	if !s.removed && s.recvEndedLocked() {
		s.removed = true
		if m.streams[s.id] == s {
			delete(m.streams, s.id)
		}
	}
	m.mu.Unlock()
}
