package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoServer registers a stream echo handler and returns the server, its
// address, and a connected client.
func echoServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer()
	srv.HandleStream("echo", func(s *Stream) error {
		var buf []byte
		for {
			b, err := s.Recv(buf)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			buf = b
			if err := s.Send(b); err != nil {
				return err
			}
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return srv, c
}

func TestStreamEcho(t *testing.T) {
	_, c := echoServer(t)
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	var recv []byte
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("message %d with some padding", i))
		if err := st.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		recv, err = st.Recv(recv)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(recv, msg) {
			t.Fatalf("echo %d mismatch: got %q want %q", i, recv, msg)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(nil); err != io.EOF {
		t.Fatalf("after half-close: recv err = %v, want EOF", err)
	}
}

// TestStreamLargeFrames pushes frames from sub-credit counts through
// multiples of the flow-control window, with payloads crossing buffer size
// classes.
func TestStreamLargeFrames(t *testing.T) {
	_, c := echoServer(t)
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 255, 256, 4096, 1 << 16, 1 << 20}
	var recv []byte
	for i, n := range sizes {
		msg := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := st.Send(msg); err != nil {
			t.Fatalf("send %d bytes: %v", n, err)
		}
		recv, err = st.Recv(recv)
		if err != nil {
			t.Fatalf("recv %d bytes: %v", n, err)
		}
		if !bytes.Equal(recv, msg) {
			t.Fatalf("payload %d bytes corrupted", n)
		}
	}
}

// TestStreamFlowControl: a sender must be able to put far more than one
// credit window in flight while the receiver drains slowly, without loss,
// reordering, or deadlock.
func TestStreamFlowControl(t *testing.T) {
	srv := NewServer()
	const total = 10 * streamWindow
	srv.HandleStream("drip", func(s *Stream) error {
		var buf []byte
		for i := 0; i < total; i++ {
			b, err := s.Recv(buf)
			if err != nil {
				return err
			}
			buf = b
			if len(b) != 8 || b[0] != byte(i) {
				return fmt.Errorf("frame %d: got len %d first byte %d", i, len(b), b[0])
			}
			if i%streamWindow == 0 {
				time.Sleep(time.Millisecond) // keep the window closing
			}
		}
		return s.Send([]byte("done"))
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()
	st, err := c.OpenStream("drip")
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	for i := 0; i < total; i++ {
		msg[0] = byte(i)
		if err := st.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	out, err := st.Recv(nil)
	if err != nil || string(out) != "done" {
		t.Fatalf("final recv = %q, %v", out, err)
	}
}

// TestStreamConcurrent runs many streams over one client (hence one shared
// connection) in parallel; each must see only its own frames.
func TestStreamConcurrent(t *testing.T) {
	_, c := echoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := c.OpenStream("echo")
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			var recv []byte
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("g%d/i%d", g, i))
				if err := st.Send(msg); err != nil {
					errs <- err
					return
				}
				recv, err = st.Recv(recv)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(recv, msg) {
					errs <- fmt.Errorf("stream %d: cross-talk: got %q want %q", g, recv, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamHandlerError: a handler returning an error resets the stream
// and the text reaches the peer.
func TestStreamHandlerError(t *testing.T) {
	srv := NewServer()
	srv.HandleStream("fail", func(s *Stream) error {
		if _, err := s.Recv(nil); err != nil {
			return err
		}
		return errors.New("deliberate failure")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()
	st, err := c.OpenStream("fail")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send([]byte("go")); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv(nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("recv err = %v, want the handler's reset text", err)
	}
	// The send side fails too.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err = st.Send([]byte("x")); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("send kept succeeding after reset")
	}
}

// TestStreamNoHandler: opening an unregistered method resets promptly.
func TestStreamNoHandler(t *testing.T) {
	_, c := echoServer(t)
	st, err := c.OpenStream("nosuch")
	if err != nil {
		t.Fatal(err) // OPEN is async; the reset arrives on first use
	}
	if _, err := st.Recv(nil); err == nil || !strings.Contains(err.Error(), "no stream handler") {
		t.Fatalf("recv err = %v, want no-handler reset", err)
	}
}

// TestStreamRecvDeadline: a Recv with nothing arriving must time out, and
// the stream must still deliver frames that arrive afterwards.
func TestStreamRecvDeadline(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	srv.HandleStream("slow", func(s *Stream) error {
		<-release
		return s.Send([]byte("late"))
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()
	st, err := c.OpenStream("slow")
	if err != nil {
		t.Fatal(err)
	}
	st.SetRecvDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := st.Recv(nil); err != ErrStreamTimeout {
		t.Fatalf("recv err = %v, want ErrStreamTimeout", err)
	}
	close(release)
	st.SetRecvDeadline(time.Now().Add(5 * time.Second))
	out, err := st.Recv(nil)
	if err != nil || string(out) != "late" {
		t.Fatalf("post-timeout recv = %q, %v", out, err)
	}
}

// TestStreamServerClose: closing the server unblocks clients mid-recv with
// an error rather than hanging them.
func TestStreamServerClose(t *testing.T) {
	srv := NewServer()
	srv.HandleStream("hang", func(s *Stream) error {
		_, err := s.Recv(nil) // never fed; blocks until teardown
		return err
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	defer c.Close()
	st, err := c.OpenStream("hang")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := st.Recv(nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("recv returned nil after server close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recv hung through server close")
	}
}

// TestStreamReopenAfterConnLoss: after the mux connection dies, the next
// OpenStream on the same client must transparently re-dial.
func TestStreamReopenAfterConnLoss(t *testing.T) {
	srv, c := echoServer(t)
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Kill every server-side conn out from under the client.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := st.Send([]byte("x")); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st2, err := c.OpenStream("echo")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := st2.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	out, err := st2.Recv(nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("post-redial echo = %q, %v", out, err)
	}
}

// TestStreamCallsCoexist: ordinary calls on the same client keep working
// while streams are active (each call is a short stream of its own on the
// same connection).
func TestStreamCallsCoexist(t *testing.T) {
	srv, c := echoServer(t)
	srv.Handle("ping", func(req []byte) ([]byte, error) { return req, nil })
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send([]byte("s")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call("ping", []byte("c"))
	if err != nil || string(resp) != "c" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	out, err := st.Recv(nil)
	if err != nil || string(out) != "s" {
		t.Fatalf("stream echo = %q, %v", out, err)
	}
}

// TestCallsShareOneConnection: concurrent calls, a call whose deadline
// expires mid-handler and an open echo stream all ride one connection, and
// the expired call resets only its own stream — the echo stream opened
// before it still echoes after it.
func TestCallsShareOneConnection(t *testing.T) {
	srv, c := echoServer(t)
	release := make(chan struct{})
	defer close(release) // before the cleanup's Server.Close drains the handler
	srv.Handle("ping", func(req []byte) ([]byte, error) { return req, nil })
	srv.Handle("stuck", func([]byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	echo := func(msg string) {
		t.Helper()
		if err := st.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if out, err := st.Recv(nil); err != nil || string(out) != msg {
			t.Fatalf("stream echo = %q, %v; want %q", out, err, msg)
		}
	}
	echo("before")

	var wg sync.WaitGroup
	errs := make(chan error, 17)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("call %d", i)
			if resp, err := c.Call("ping", []byte(msg)); err != nil || string(resp) != msg {
				errs <- fmt.Errorf("call %d = %q, %v", i, resp, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := c.CallContext(ctx, "stuck", nil); !errors.Is(err, context.DeadlineExceeded) {
			errs <- fmt.Errorf("expiring call: got %v, want DeadlineExceeded", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	echo("after")
	srv.mu.Lock()
	n := len(srv.conns)
	srv.mu.Unlock()
	if n != 1 {
		t.Fatalf("server holds %d connections from one client, want 1", n)
	}
}

// TestStreamEchoAllocs is the zero-alloc gate on the rpc layer itself: a
// steady-state Send/Recv round-trip (client and server loops both hot) must
// not allocate on either side.
func TestStreamEchoAllocs(t *testing.T) {
	_, c := echoServer(t)
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1024)
	recv := make([]byte, 0, 2048)
	// Warm up: fill buffer pools, grow scratch, settle credit exchange.
	for i := 0; i < 3*streamWindow; i++ {
		if err := st.Send(msg); err != nil {
			t.Fatal(err)
		}
		if recv, err = st.Recv(recv); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Send(msg); err != nil {
			t.Fatal(err)
		}
		recv, err = st.Recv(recv)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("stream echo round-trip allocates %.2f/op, want 0", allocs)
	}
}

// BenchmarkStreamEcho and BenchmarkCallEcho compare one message round-trip
// over a persistent stream against a unary call, which opens and ends a
// stream of its own each time; BenchmarkTCPPingPong/4KiB is the same
// exchange on a bare socket.
func BenchmarkStreamEcho(b *testing.B) {
	srv := NewServer()
	srv.HandleStream("echo", func(s *Stream) error {
		var buf []byte
		for {
			bb, err := s.Recv(buf)
			if err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
			buf = bb
			if err := s.Send(bb); err != nil {
				return err
			}
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()
	st, err := c.OpenStream("echo")
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 4096)
	var recv []byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := st.Send(msg); err != nil {
			b.Fatal(err)
		}
		if recv, err = st.Recv(recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPPingPong is the floor BenchmarkStreamEcho is read against: the
// same round trip as a raw TCP exchange on 127.0.0.1, one goroutine echoing
// fixed-size messages back, with no framing, multiplexing or credit.
func BenchmarkTCPPingPong(b *testing.B) {
	for _, size := range []int{1 << 10, 4 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				buf := make([]byte, size)
				for {
					if _, err := io.ReadFull(conn, buf); err != nil {
						return
					}
					if _, err := conn.Write(buf); err != nil {
						return
					}
				}
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			msg := make([]byte, size)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Write(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCallEcho(b *testing.B) {
	srv := NewServer()
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := Dial(addr)
	defer c.Close()
	msg := make([]byte, 4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", msg); err != nil {
			b.Fatal(err)
		}
	}
}
