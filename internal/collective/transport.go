// Package collective is the runtime's collective-communication engine — the
// Horovod-style MPI collectives (allreduce, allgather, broadcast, barrier)
// that Section VIII of the paper points to as the scalable alternative to
// parameter-server reductions. Every ring collective runs on one ring step
// (ringPass): allreduce is the bandwidth-optimal reduce-scatter + allgather
// decomposition, chunked and pipelined so communication of one chunk
// overlaps the reduction of the next, with reductions fanned across the
// shared gemm worker pool; ReduceScatter is its first pass alone; AllGather
// and AllGatherV share one allgather ring. Small allreduces run recursive
// doubling instead, and Broadcast is a binomial tree.
//
// One transport carries every group: each rank reads a Hub inbox, and each
// edge picks its carrier by where the peer is — a persistent internal/rpc
// stream to another process, read by the receiving rank itself when it
// waits for a chunk, or a pooled copy handed straight to the peer's Hub in
// this one. A cluster task builds it over the addresses of a cluster
// spec (NewNetTransport); tests and single-node runs build it with every
// rank in this process (NewLoopbackGroups).
package collective

import (
	"fmt"
	"io"
	"sync"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

// Transport moves tagged tensor messages between the ranks of one group.
// Send may deliver to any peer (the ring algorithms only dial neighbours;
// the gather-to-root baseline dials the root). Recv blocks for the message
// with the given key and tag from one sender — matching is exact, so
// concurrent collectives with distinct keys share a transport safely.
type Transport interface {
	Rank() int
	Size() int
	Send(to int, key string, tag uint64, t *tensor.Tensor) error
	Recv(from int, key string, tag uint64) (*tensor.Tensor, error)
	// Close tears the endpoint down. It poisons this rank's lane in every
	// peer's inbox over any edge type, so a peer blocked on Recv from this
	// rank fails fast instead of waiting out its receive timeout. The close
	// of a superseded epoch leaves the membership that replaced it alone.
	Close() error
}

// tag packs (sequence, phase, step, subchunk) into one uint64. The sequence
// number is per (group, key), so repeated collectives under one key never
// collide; phases separate reduce-scatter / allgather / gather / broadcast
// traffic inside one operation.
func tag(seq uint64, phase, step, sub int) uint64 {
	return seq<<32 | uint64(phase&0xf)<<28 | uint64(step&0x3fff)<<14 | uint64(sub&0x3fff)
}

const (
	phaseReduceScatter = iota
	phaseAllGather     // allreduce allgather pass, AllGather/AllGatherV data ring
	phaseGather        // gather-to-root: the naive allreduce's and GatherV's payload
	phaseBroadcast     // the naive allreduce's result, root to every rank
	phaseDouble        // recursive-doubling exchange steps
	phaseTree          // binomial-tree broadcast
	phaseRS            // standalone reduce-scatter
	phaseGatherV       // AllGatherV/GatherV size exchange
)

// message is one in-flight tensor with its match labels.
type message struct {
	key string
	tag uint64
	t   *tensor.Tensor
}

// lane is the per-sender inbox: an unbounded FIFO with tag-matched takes.
// Puts never block, so senders cannot deadlock against receivers. A sender
// in another process reaches the lane over a stream edge that
// Hub.HandleStream attaches to it: the edge is read by the lane's takers
// themselves, so a chunk is decoded by the goroutine that waits for it, and
// such a sender runs at most the stream's credit window ahead of the takes.
// No collective waits on a peer that is itself blocked sending to it — each
// ring step receives while it sends — so the window cannot deadlock them.
type lane struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	err  error
	// timer is the lane's single reusable timeout timer: take re-arms it
	// instead of allocating one per wait, keeping the timed receive path
	// allocation-free. timerAt is when it is armed to fire (zero = unarmed).
	timer   *time.Timer
	timerAt time.Time

	// The attached stream edge and its sender. One taker at a time reads
	// it (reading); the others wait on cond as for a put.
	edge    *rpc.Stream
	from    int
	reading bool
	failed  chan struct{} // closed by fail once an edge is attached
	key     string        // the last key read off edge, reused while it repeats
}

func newLane() *lane {
	l := &lane{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *lane) put(m message) {
	l.mu.Lock()
	if l.err == nil {
		l.msgs = append(l.msgs, m)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// fail poisons the lane: pending and future takes return err.
func (l *lane) fail(err error) {
	l.mu.Lock()
	l.failLocked(err)
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *lane) failLocked(err error) {
	if l.err != nil {
		return
	}
	l.err = err
	if l.failed != nil {
		close(l.failed)
	}
}

// attach hands the lane the stream edge from sender from and returns the
// channel that fail closes. A lane takes one edge, and none once poisoned.
func (l *lane) attach(st *rpc.Stream, from int) (<-chan struct{}, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	if l.edge != nil {
		return nil, fmt.Errorf("collective: a second edge from rank %d", from)
	}
	l.edge, l.from, l.failed = st, from, make(chan struct{})
	l.cond.Broadcast() // takers already waiting read it from now on
	return l.failed, nil
}

// take removes and returns the message matching (key, tag), waiting up to
// timeout (0 = wait forever). A taker that finds no match while no other
// taker is reading the lane's edge reads the edge itself; the others wait
// and share the lane's one timer: each checks its own deadline against the
// wall clock on wakeup and keeps the timer pointed at the earliest
// outstanding deadline.
func (l *lane) take(key string, tg uint64, timeout time.Duration) (*tensor.Tensor, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for i, m := range l.msgs {
			if m.key == key && m.tag == tg {
				l.msgs = append(l.msgs[:i], l.msgs[i+1:]...)
				return m.t, nil
			}
		}
		if l.err != nil {
			return nil, l.err
		}
		now := time.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			return nil, fmt.Errorf("collective: timed out after %v waiting for %q tag %#x", timeout, key, tg)
		}
		if l.edge != nil && !l.reading {
			if t := l.readEdgeLocked(key, tg, deadline); t != nil {
				return t, nil
			}
			continue
		}
		if !deadline.IsZero() {
			l.armLocked(now, deadline)
		}
		l.cond.Wait()
	}
}

// readEdgeLocked reads one chunk off the edge with l.mu released, up to
// deadline, and returns it when it is (key, tg); any other chunk is queued
// for the takers waiting for it. The end of the edge poisons the lane.
func (l *lane) readEdgeLocked(key string, tg uint64, deadline time.Time) *tensor.Tensor {
	st := l.edge
	l.reading = true
	l.mu.Unlock()
	st.SetRecvDeadline(deadline)
	m, err := l.recvChunk(st, key)
	l.mu.Lock()
	l.reading = false
	l.cond.Broadcast() // the next taker reads, or finds the chunk it waits for
	switch {
	case err == nil && m.key == key && m.tag == tg:
		return m.t
	case err == nil:
		l.msgs = append(l.msgs, m)
	case err == rpc.ErrStreamTimeout:
		// take's deadline check reports it
	default:
		l.failLocked(l.edgeErr(err))
	}
	return nil
}

// recvChunk receives one chunk record from the edge, decoding it straight
// out of the transport's frame. The key string is want when the record
// carries it, else the lane's last key, so a steady stream of one
// collective's chunks allocates none. Only the edge's reader calls it.
func (l *lane) recvChunk(st *rpc.Stream, want string) (message, error) {
	var m message
	err := st.RecvFunc(func(p []byte) error {
		kb, tg, t, err := parseChunk(p)
		if err != nil {
			return err
		}
		switch {
		case string(kb) == want:
			m.key = want
		case string(kb) != l.key:
			l.key = string(kb)
			fallthrough
		default:
			m.key = l.key
		}
		m.tag, m.t = tg, t
		return nil
	})
	return m, err
}

// edgeErr is what an edge's end leaves in the lane.
func (l *lane) edgeErr(err error) error {
	if err == io.EOF {
		return errLeft(l.from)
	}
	return fmt.Errorf("collective: edge from rank %d lost: %w", l.from, err)
}

// drainEdge runs once the edge's receive side has ended. As its last reader
// it moves the chunks still queued on the stream into the lane, then
// poisons the lane as the end of the edge — so takers blocked on this
// sender fail fast — and reports how the edge ended: nil when the sender
// closed it.
func (l *lane) drainEdge(st *rpc.Stream) error {
	l.mu.Lock()
	for l.reading {
		l.cond.Wait()
	}
	l.reading = true
	l.mu.Unlock()
	st.SetRecvDeadline(time.Time{})
	var err error
	for err == nil {
		var m message
		if m, err = l.recvChunk(st, ""); err == nil {
			l.put(m)
		}
	}
	l.mu.Lock()
	l.reading = false
	l.failLocked(l.edgeErr(err))
	l.mu.Unlock()
	l.cond.Broadcast()
	if err == io.EOF {
		return nil
	}
	return err
}

// armLocked points the lane timer at deadline unless it is already armed to
// fire no later.
func (l *lane) armLocked(now time.Time, deadline time.Time) {
	if !l.timerAt.IsZero() && l.timerAt.After(now) && !l.timerAt.After(deadline) {
		return
	}
	l.timerAt = deadline
	if l.timer == nil {
		l.timer = time.AfterFunc(deadline.Sub(now), l.onTimer)
	} else {
		l.timer.Reset(deadline.Sub(now))
	}
}

// onTimer wakes every waiter; each re-checks its own deadline and re-arms
// as needed.
func (l *lane) onTimer() {
	l.mu.Lock()
	l.timerAt = time.Time{}
	l.mu.Unlock()
	l.cond.Broadcast()
}
