package rpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"tfhpc/internal/wire"
)

// startCtxServer boots a server with a "slow" method that blocks until its
// handler context expires (reporting whether a deadline arrived at all) and
// an "echo" method.
func startCtxServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer()
	srv.HandleCtx("slow", func(ctx context.Context, req []byte) ([]byte, error) {
		if _, ok := ctx.Deadline(); !ok {
			return []byte("no-deadline"), nil
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	srv.Handle("hang", func(req []byte) ([]byte, error) {
		time.Sleep(1500 * time.Millisecond) // Server.Close drains this, keep it short
		return []byte("late"), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestCallContextDeadlineUnblocksClient(t *testing.T) {
	addr, _ := startCtxServer(t)
	c := Dial(addr)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.CallContext(ctx, "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not unblock the call: took %v", elapsed)
	}
}

func TestCallContextDeadlineReachesHandler(t *testing.T) {
	addr, _ := startCtxServer(t)
	c := Dial(addr)
	defer c.Close()

	// Without a deadline the slow handler answers immediately, proving the
	// budget field is what arms it.
	resp, err := c.Call("slow", nil)
	if err != nil || string(resp) != "no-deadline" {
		t.Fatalf("want no-deadline, got %q err=%v", resp, err)
	}

	// With a deadline the handler blocks until its context expires and
	// returns the context error over the wire; a generous client budget
	// (2x) keeps the failure on the server side.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = c.CallContext(ctx, "slow", nil)
	if err == nil {
		t.Fatalf("want an error from the deadline-armed handler")
	}
}

func TestCallContextCancelMidCall(t *testing.T) {
	addr, _ := startCtxServer(t)
	c := Dial(addr)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.CallContext(ctx, "hang", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel did not unblock the call: took %v", elapsed)
	}
}

func TestCallContextExpiredBeforeSend(t *testing.T) {
	addr, _ := startCtxServer(t)
	c := Dial(addr)
	defer c.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.CallContext(ctx, "echo", []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCallContextPoolReuseAfterSuccess(t *testing.T) {
	addr, _ := startCtxServer(t)
	c := Dial(addr)
	defer c.Close()

	// A successful deadline-bearing call must clear the conn deadline before
	// pooling, or the next (slow but legitimate) call on the reused conn
	// would be killed by the stale timer.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	if _, err := c.CallContext(ctx, "echo", []byte("a")); err != nil {
		t.Fatalf("first call: %v", err)
	}
	cancel()
	time.Sleep(250 * time.Millisecond) // let the stale deadline (if any) pass
	if resp, err := c.Call("echo", []byte("b")); err != nil || string(resp) != "b" {
		t.Fatalf("pooled reuse: got %q err=%v", resp, err)
	}
}

// TestCallContextBoundsAStuckWrite: a stream's Send blocks mid-write on a
// peer that stopped reading, holding the connection's write lock. A call
// with a deadline queued behind it must still return at its deadline — it
// fails the connection rather than wait for TCP to give up.
func TestCallContextBoundsAStuckWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// The preface, then silence: nothing is ever read.
		wire.WriteFrame(conn, muxFrame(0, kindCredit, []byte{0}))
		<-done
	}()
	c := Dial(ln.Addr().String())
	defer c.Close()
	st, err := c.OpenStream("Sink")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		chunk := make([]byte, 1<<20)
		for st.Send(chunk) == nil {
		}
	}()
	time.Sleep(200 * time.Millisecond) // the socket buffers fill
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallContext(ctx, "echo", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call behind a stuck write took %v", elapsed)
	}
}
