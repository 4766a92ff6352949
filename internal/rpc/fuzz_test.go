package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/wire"
)

// frameSink is the server end of a fuzzed connection: it records what the
// mux writes, and closing it keeps the record, so the frames of handlers
// that end after the mux failed are checked too.
type frameSink struct {
	net.Conn // nil: a mux only writes to and closes its connection
	mu       sync.Mutex
	out      []byte
}

func (c *frameSink) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return len(p), nil
}

func (c *frameSink) Close() error { return nil }

// muxFrames lays stream frames out the way FuzzMuxDispatch reads its input:
// each frame is a one-byte length and then uvarint id | kind | payload.
func muxFrames(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, byte(len(f)))
		out = append(out, f...)
	}
	return out
}

func muxFrame(id uint64, kind byte, payload []byte) []byte {
	return append(append(binary.AppendUvarint(nil, id), kind), payload...)
}

// FuzzMuxDispatch feeds arbitrary frames to a server-side mux with a unary
// and a stream handler registered: every byte a server reads off a socket
// goes through dispatch, and a call's request frame through decodeRequest.
// Nothing may panic. A malformed frame must fail the mux, not a handler:
// handlers recover their panics into RESET text, so the frames the server
// wrote are checked for it, and the wait for the handlers returning shows
// each one ended once its peer half-closed.
func FuzzMuxDispatch(f *testing.F) {
	req := encodeRequest("Echo", []byte("x"), time.Millisecond, telemetry.SpanContext{Trace: 1, Span: 2})
	f.Add(muxFrames(muxFrame(1, kindOpen, []byte("Echo")), muxFrame(1, kindData, req)))
	f.Add(muxFrames(muxFrame(1, kindOpen, []byte("Echo")), muxFrame(1, kindData, []byte{0xff}), muxFrame(1, kindClose, nil)))
	f.Add(muxFrames(muxFrame(3, kindOpen, []byte("drain")), muxFrame(3, kindData, []byte("hi")),
		muxFrame(3, kindCredit, []byte{2}), muxFrame(3, kindClose, nil)))
	f.Add(muxFrames(muxFrame(5, kindOpen, []byte("drain")), muxFrame(5, kindReset, []byte("bye"))))
	f.Add(muxFrames(muxFrame(7, kindOpen, []byte("nosuch")), muxFrame(7, kindOpen, []byte("drain"))))
	// A grant that wraps the window to zero would stall the response.
	f.Add(muxFrames(muxFrame(1, kindOpen, []byte("Echo")),
		muxFrame(1, kindCredit, binary.AppendUvarint(nil, 1<<64-streamWindow)), muxFrame(1, kindData, req)))
	f.Add(muxFrames(muxFrame(1, kindCredit, nil)))
	f.Add(muxFrames(muxFrame(1, 9, nil)))
	f.Add(muxFrames([]byte{0x80}))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer()
		srv.Handle("Echo", func(req []byte) ([]byte, error) { return req, nil })
		srv.HandleStream("drain", func(st *Stream) error {
			for {
				if _, err := st.Recv(nil); err != nil {
					return err
				}
			}
		})
		conn := &frameSink{}
		// What readLoop does, with the frames taken from data. A frame
		// dispatch rejects ends the input, as it fails the mux there.
		m := newMux(conn, srv)
		var err error
		for len(data) > 0 && err == nil {
			n := min(int(data[0]), len(data)-1)
			buf := wire.GetBuf(n)
			copy(buf, data[1:1+n])
			data = data[1+n:]
			err = m.dispatch(buf)
		}
		// The peer half-closes every stream, so each handler runs to its
		// end and writes its last frame before the connection fails.
		m.mu.Lock()
		open := make([]*Stream, 0, len(m.streams))
		for _, st := range m.streams {
			open = append(open, st)
		}
		m.mu.Unlock()
		for _, st := range open {
			st.remoteClose(nil)
		}
		srv.wg.Wait() // every handler has returned
		m.fail(io.EOF)

		for b := conn.out; len(b) >= 4; {
			n := int(binary.BigEndian.Uint32(b))
			if n > len(b)-4 {
				t.Fatalf("server wrote a truncated frame")
			}
			frame := b[4 : 4+n]
			b = b[4+n:]
			_, k := binary.Uvarint(frame)
			if k <= 0 || k >= len(frame) {
				t.Fatalf("server wrote a malformed frame %x", frame)
			}
			if frame[k] == kindReset && bytes.HasPrefix(frame[k+1:], []byte("rpc: stream handler panic")) {
				t.Fatalf("a handler panicked: %s", frame[k+1:])
			}
		}
	})
}
