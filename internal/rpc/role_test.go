package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// roleOf reports who holds m's reader role and whether st is parked.
func roleOf(m *mux, st *Stream) (leader *Stream, reading, waiting bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leader, m.reading, st.waiting
}

// leadWith runs recv on its own goroutine and waits until st's receiver
// holds m's reader role. A receiver that finds readLoop reading waits until
// readLoop has routed a frame; poke sends it one.
func leadWith(t *testing.T, m *mux, st *Stream, recv func() error, poke func()) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- recv() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader, reading, waiting := roleOf(m, st)
		if reading && leader == st {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never took the reader role")
		}
		if waiting && reading && leader == nil {
			poke()
		}
		time.Sleep(time.Millisecond)
	}
}

// waitParked waits until st's receiver is parked behind the reader.
func waitParked(t *testing.T, m *mux, st *Stream) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, waiting := roleOf(m, st); waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("second receiver never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaderHandsOnRole: a receiver holding the reader role that gives up —
// its deadline passes, its call's ctx is cancelled, its stream is closed —
// hands the role to the receiver parked behind it, which then reads its own
// frame when it arrives. When the Client is closed, every receiver on the
// connection returns. A leader that kept the role would leave the parked
// receiver waiting: each case checks the role reached it, then that its
// frame arrives.
func TestLeaderHandsOnRole(t *testing.T) {
	cases := []struct {
		name string
		// lead makes one receiver the reader and returns a func that makes
		// it give up, and the error its receive must return.
		lead func(t *testing.T, c *Client, m *mux, poke func()) (<-chan error, func(), error)
	}{
		{"deadline", func(t *testing.T, c *Client, m *mux, poke func()) (<-chan error, func(), error) {
			st := warmStream(t, c)
			done := leadWith(t, m, st, func() error { _, err := st.Recv(nil); return err }, poke)
			return done, func() { st.SetRecvDeadline(time.Now()) }, ErrStreamTimeout
		}},
		{"close", func(t *testing.T, c *Client, m *mux, poke func()) (<-chan error, func(), error) {
			st := warmStream(t, c)
			done := leadWith(t, m, st, func() error { _, err := st.Recv(nil); return err }, poke)
			return done, func() { st.Close() }, ErrStreamClosed
		}},
		{"ctx", func(t *testing.T, c *Client, m *mux, poke func()) (<-chan error, func(), error) {
			ctx, cancel := context.WithCancel(context.Background())
			// The call's receive has no frame coming: the handler holds.
			calls := make(chan error, 1)
			go func() { _, err := c.CallContext(ctx, "hold", nil); calls <- err }()
			deadline := time.Now().Add(5 * time.Second)
			for {
				m.mu.Lock()
				var st *Stream
				for _, s := range m.streams {
					if s.method == "hold" {
						st = s
					}
				}
				leads := st != nil && m.reading && m.leader == st
				behind := st != nil && st.waiting && m.reading && m.leader == nil
				m.mu.Unlock()
				if leads {
					return calls, cancel, context.Canceled
				}
				if time.Now().After(deadline) {
					t.Fatal("the call never took the reader role")
				}
				if behind {
					poke()
				}
				time.Sleep(time.Millisecond)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m, gate, poke := roleServer(t)
			done, giveUp, want := tc.lead(t, c, m, poke)
			sib, sibDone := gatedRecv(t, c)
			waitParked(t, m, sib)
			giveUp()
			select {
			case err := <-done:
				if !errors.Is(err, want) {
					t.Fatalf("leader's receive: %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the leader never gave up")
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if leader, reading, _ := roleOf(m, sib); reading && leader == sib {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the reader role never reached the parked receiver")
				}
			}
			close(gate)
			select {
			case err := <-sibDone:
				if err != nil {
					t.Fatalf("sibling receive: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("sibling never received its frame")
			}
		})
	}

	t.Run("client-close", func(t *testing.T) {
		c, m, _, poke := roleServer(t)
		st := warmStream(t, c)
		done := leadWith(t, m, st, func() error { _, err := st.Recv(nil); return err }, poke)
		sib, sibDone := gatedRecv(t, c)
		waitParked(t, m, sib)
		c.Close()
		for _, ch := range []<-chan error{done, sibDone} {
			select {
			case err := <-ch:
				if err == nil {
					t.Fatal("receive on a closed client succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a receive outlived its client")
			}
		}
	})
}

// roleServer serves echo, a unary ping, a call that holds until the test
// ends, and a gated stream that answers its first frame once gate is closed.
// poke makes one round trip on the connection.
func roleServer(t *testing.T) (c *Client, m *mux, gate chan struct{}, poke func()) {
	t.Helper()
	srv, c := echoServer(t)
	gate = make(chan struct{})
	hold := make(chan struct{})
	srv.Handle("ping", func(req []byte) ([]byte, error) { return req, nil })
	srv.Handle("hold", func([]byte) ([]byte, error) { <-hold; return nil, nil })
	srv.HandleStream("gated", func(s *Stream) error {
		if _, err := s.Recv(nil); err != nil {
			return err
		}
		select {
		case <-gate:
		case <-hold:
			return nil
		}
		if err := s.Send([]byte("gated")); err != nil {
			return err
		}
		_, err := s.Recv(nil)
		if err == io.EOF {
			err = nil
		}
		return err
	})
	t.Cleanup(func() { close(hold) }) // before echoServer's cleanup closes the server
	if _, err := c.Call("ping", nil); err != nil {
		t.Fatal(err)
	}
	m = c.liveMux()
	poke = func() { c.Call("ping", nil) }
	return c, m, gate, poke
}

// warmStream opens an echo stream whose receiver has received before, so
// it reads for itself when the role is free.
func warmStream(t *testing.T, c *Client) *Stream {
	t.Helper()
	st, err := c.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Send([]byte("warm")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(nil); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// gatedRecv opens a gated stream, sends its request and waits for the
// answer on its own goroutine.
func gatedRecv(t *testing.T, c *Client) (*Stream, <-chan error) {
	t.Helper()
	st, err := c.OpenStream("gated")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send([]byte("req")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		b, err := st.Recv(nil)
		if err == nil && string(b) != "gated" {
			err = errors.New("sibling got " + string(b))
		}
		st.CloseSend()
		done <- err
	}()
	return st, done
}

// TestInterruptKeepsPartFrame: a reader whose deadline passes while it is
// half way through a 1 MiB frame gives up without tearing the frame: the
// next receive returns the whole frame once its second half arrives. The
// peer is a raw socket, so the frame can stop mid-way.
func TestInterruptKeepsPartFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(peer)
			return
		}
		conn.Write(rawFrame(0, kindCredit, []byte{0})) // the server's preface: no grant
		peer <- conn
	}()
	c := Dial(ln.Addr().String())
	defer c.Close()
	st, err := c.OpenStream("raw")
	if err != nil {
		t.Fatal(err)
	}
	conn := <-peer
	if conn == nil {
		t.Fatal("accept failed")
	}
	defer conn.Close()
	go io.Copy(io.Discard, conn) // the client's OPEN and credits
	m := c.liveMux()

	for i := 0; i < 2; i++ { // st has received before: it reads for itself
		conn.Write(rawFrame(st.id, kindData, []byte("warm")))
		if _, err := st.Recv(nil); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := rawFrame(st.id, kindData, payload)
	half := len(frame) / 2

	done := leadWith(t, m, st, func() error {
		_, err := st.Recv(nil)
		return err
	}, func() { conn.Write(rawFrame(99, kindData, []byte("poke"))) }) // a stream nobody has: dropped
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the reader takes in the first half
	st.SetRecvDeadline(time.Now())
	select {
	case err := <-done:
		if err != ErrStreamTimeout {
			t.Fatalf("receive with a passed deadline: %v, want ErrStreamTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a passed deadline did not interrupt the reader")
	}
	if _, err := conn.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	st.SetRecvDeadline(time.Now().Add(5 * time.Second))
	got, err := st.Recv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame torn: got %d bytes, want the %d sent", len(got), len(payload))
	}
}

// rawFrame lays out one stream frame as a peer writes it.
func rawFrame(id uint64, kind byte, payload []byte) []byte {
	body := append(append(binary.AppendUvarint(nil, id), kind), payload...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}
