// Package collective is the runtime's collective-communication engine — the
// Horovod-style MPI collectives (allreduce, allgather, broadcast, barrier)
// that Section VIII of the paper points to as the scalable alternative to
// parameter-server reductions. Operations run over a ring: allreduce is the
// bandwidth-optimal reduce-scatter + allgather decomposition, chunked and
// pipelined so communication of one chunk overlaps the reduction of the
// next, with reductions fanned across the shared gemm worker pool.
//
// Two transports implement the same interface: an in-process loopback (tests
// and single-node runs) and TCP over the internal/rpc framed-message layer
// using the addresses of a cluster spec (each task dials its peers, every
// task hosts a Hub inbox).
package collective

import (
	"fmt"
	"sync"
	"time"

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
	// Close tears the endpoint down; peers blocked on Recv from this rank
	// fail fast on loopback and time out on TCP.
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
	phaseAllGather
	phaseGather // gather-to-root: the naive allreduce's and GatherV's payload
	phaseBroadcast
	phaseDouble  // recursive-doubling exchange steps
	phaseTree    // binomial-tree broadcast
	phaseRS      // standalone reduce-scatter
	phaseGatherV // gatherv size exchange + allgatherv data circulation
)

// message is one in-flight tensor with its match labels.
type message struct {
	key string
	tag uint64
	t   *tensor.Tensor
}

// lane is the per-sender inbox: an unbounded FIFO with tag-matched takes.
// Puts never block, so senders cannot deadlock against receivers.
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
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// take removes and returns the message matching (key, tag), waiting up to
// timeout (0 = wait forever). Waiters share the lane's one timer: each
// checks its own deadline against the wall clock on wakeup and keeps the
// timer pointed at the earliest outstanding deadline.
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
		if !deadline.IsZero() {
			now := time.Now()
			if !now.Before(deadline) {
				return nil, fmt.Errorf("collective: timed out after %v waiting for %q tag %#x", timeout, key, tg)
			}
			l.armLocked(now, deadline)
		}
		l.cond.Wait()
	}
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
