package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	pol := RetryPolicy{Attempts: 8, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		want := pol.Base << (attempt - 1)
		if want > pol.Max {
			want = pol.Max
		}
		for i := 0; i < 32; i++ {
			d := pol.Backoff(attempt)
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, want/2, want)
			}
		}
		if want < prevCap {
			t.Fatalf("attempt %d: cap %v shrank from %v", attempt, want, prevCap)
		}
		prevCap = want
	}
}

func TestIsTransient(t *testing.T) {
	transient := []error{
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		syscall.EPIPE,
		io.EOF,
		io.ErrUnexpectedEOF,
		&net.OpError{Op: "dial", Err: errors.New("no route")},
		fmt.Errorf("rpc: wrapped: %w", syscall.ECONNREFUSED),
	}
	for _, err := range transient {
		if !IsTransient(err) {
			t.Errorf("IsTransient(%v) = false, want true", err)
		}
	}
	final := []error{
		nil,
		&RemoteError{Msg: "no such method"},
		context.Canceled,
		context.DeadlineExceeded,
		errors.New("some application error"),
	}
	for _, err := range final {
		if IsTransient(err) {
			t.Errorf("IsTransient(%v) = true, want false", err)
		}
	}
}

// TestCallRetryRidesThroughRestart is the elastic scenario: the server is
// not listening when the first calls go out (connection refused), comes up
// shortly after, and the retrying call succeeds without caller-side polling.
func TestCallRetryRidesThroughRestart(t *testing.T) {
	// Reserve an address, then close it so the first dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := NewServer()
	srv.Handle("Echo", func(req []byte) ([]byte, error) { return req, nil })
	go func() {
		time.Sleep(60 * time.Millisecond)
		srv.Listen(addr) // port raced away → the call below fails the test
	}()
	defer srv.Close()

	c := Dial(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.CallRetry(ctx, "Echo", []byte("ping"), RetryPolicy{Attempts: 10, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("CallRetry: %v", err)
	}
	if string(resp) != "ping" {
		t.Fatalf("CallRetry = %q, want %q", resp, "ping")
	}
}

// TestCallRetryStopsOnRemoteError: handler errors reached a live server and
// must not be retried.
func TestCallRetryStopsOnRemoteError(t *testing.T) {
	srv := NewServer()
	// Atomic: the response reaches this goroutine over TCP, which the race
	// detector does not see as synchronisation.
	var calls atomic.Int32
	srv.Handle("Fail", func(req []byte) ([]byte, error) {
		calls.Add(1)
		return nil, errors.New("boom")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(addr)
	defer c.Close()
	_, err = c.CallRetry(context.Background(), "Fail", nil, RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: time.Millisecond})
	if !IsRemote(err) {
		t.Fatalf("err = %v, want remote error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (no retry on remote error)", n)
	}
}

// TestCallRetryGivesUp: attempts are bounded when the peer never appears.
func TestCallRetryGivesUp(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	c := Dial(addr)
	defer c.Close()
	start := time.Now()
	_, err = c.CallRetry(context.Background(), "Echo", nil, RetryPolicy{Attempts: 3, Base: 5 * time.Millisecond, Max: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("CallRetry succeeded against a dead address")
	}
	if !IsTransient(err) {
		t.Fatalf("final error %v should still be the transient dial failure", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("bounded retry took %v", el)
	}
}
