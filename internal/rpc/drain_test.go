package rpc

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestClientCloseAbortsInFlightCall: a call blocked on a peer that never
// responds must fail when the client closes, not hang — the collective
// teardown path cascades failures through exactly this.
func TestClientCloseAbortsInFlightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and stay silent
		}
	}()
	c := Dial(ln.Addr().String())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("Never", nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call to a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Client.Close did not abort the in-flight call")
	}
}

// TestClientCloseAbortsOpenStream: a stream opened to a peer that accepts
// and stays silent must fail when the client closes, not hang — partition
// streams, collective edges and predict streams all open this way.
func TestClientCloseAbortsOpenStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and stay silent
		}
	}()
	c := Dial(ln.Addr().String())
	done := make(chan error, 1)
	go func() {
		st, err := c.OpenStream("Never")
		if err == nil {
			_, err = st.Recv(nil)
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stream from a silent peer delivered a frame")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Client.Close did not abort OpenStream")
	}
}

// TestCloseDrainsInFlight: a call running when Close begins must finish and
// get its response; Close returns only after it.
func TestCloseDrainsInFlight(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	release := make(chan struct{})
	s.Handle("Slow", func([]byte) ([]byte, error) {
		close(started)
		<-release
		return []byte("done"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	defer c.Close()

	type result struct {
		resp []byte
		err  error
	}
	callDone := make(chan result, 1)
	go func() {
		resp, err := c.Call("Slow", nil)
		callDone <- result{resp, err}
	}()
	<-started

	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	// Close must be draining, not done, while the handler is blocked.
	select {
	case <-closeDone:
		t.Fatal("Close returned while a call was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-callDone:
		if r.err != nil {
			t.Fatalf("in-flight call failed during drain: %v", r.err)
		}
		if string(r.resp) != "done" {
			t.Fatalf("in-flight call got %q", r.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after drain")
	}
}

// TestCloseWithIdleClientConns: a client keeps its connection open between
// calls; Close must cut it instead of waiting for the peer to hang up.
func TestCloseWithIdleClientConns(t *testing.T) {
	s := NewServer()
	s.Handle("Ping", func([]byte) ([]byte, error) { return []byte("pong"), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	defer c.Close()
	if _, err := c.Call("Ping", nil); err != nil {
		t.Fatal(err)
	}
	// The connection is now idle in the client pool; Close must still return.
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle pooled connection")
	}
}

// TestCallsAfterCloseRejected: calls racing shutdown get an error, not a
// hang, and concurrent traffic never panics the server.
func TestCallsAfterCloseRejected(t *testing.T) {
	s := NewServer()
	s.Handle("Ping", func([]byte) ([]byte, error) { return []byte("pong"), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Dial(addr)
			defer c.Close()
			for j := 0; j < 50; j++ {
				if _, err := c.Call("Ping", nil); err != nil {
					return // shutdown reached this client
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	s.Close()
	wg.Wait()
	if _, err := Dial(addr).Call("Ping", nil); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTeardownLeavesNoGoroutines runs plain calls, deadline-bound calls
// (answered and expired), cancelled calls and two streams, then closes the
// client and the server: every goroutine the transport started must exit.
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, c := echoServer(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free() // a failed check must not leave Server.Close draining held calls
	srv.Handle("ping", func(req []byte) ([]byte, error) { return req, nil })
	srv.Handle("hold", func([]byte) ([]byte, error) {
		<-release
		return nil, nil
	})

	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 4 {
			case 0:
				_, err = c.Call("ping", []byte("x"))
			case 1:
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err = c.CallContext(ctx, "ping", []byte("x"))
				cancel()
			case 2:
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				if _, cerr := c.CallContext(ctx, "hold", nil); !errors.Is(cerr, context.DeadlineExceeded) {
					err = cerr
				}
				cancel()
			case 3:
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(time.Millisecond, cancel)
				if _, cerr := c.CallContext(ctx, "hold", nil); !errors.Is(cerr, context.Canceled) {
					err = cerr
				}
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	open, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	closed, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stream{open, closed} {
		if err := st.Send([]byte("s")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(nil); err != nil {
			t.Fatal(err)
		}
	}
	closed.Close()

	free() // the held handlers answer streams their callers reset
	c.Close()
	srv.Close()
	waitFor(t, "rpc goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}
