package session

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

// PartitionMethod is the rpc stream method a task serves partitions on.
const PartitionMethod = "Partitions"

// Host runs registered partitions against one task's resources. Every
// stream a session opens to the task carries that session's registrations
// and runs; closing the stream drops its partitions and aborts their runs.
type Host struct {
	res  *Resources
	live atomic.Int64
}

// NewHost returns a host over a task's resources.
func NewHost(res *Resources) *Host { return &Host{res: res} }

// Partitions reports how many partitions are registered over the host's
// open streams. A stream's partitions are dropped once the host sees the
// stream end, which can be after the client's Session.Close has returned;
// a leak check polls until the count settles.
func (h *Host) Partitions() int { return int(h.live.Load()) }

// Serve runs one session's partition stream until it closes; it is the
// stream handler for PartitionMethod.
func (h *Host) Serve(st *rpc.Stream) error {
	hs := &hostStream{h: h, st: st, parts: make(map[uint64]*hostPart), runs: make(map[uint64]*rendezvous)}
	defer hs.close()
	for {
		if err := st.RecvFunc(hs.dispatch); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// hostPart is one registered partition.
type hostPart struct {
	prog *program
	err  error // why registration failed; every run of the handle reports it
}

// hostStream is the task side of one session's stream.
type hostStream struct {
	h     *Host
	st    *rpc.Stream
	parts map[uint64]*hostPart // touched by the dispatch goroutine only
	live  int64                // parts registered without error

	wg   sync.WaitGroup
	mu   sync.Mutex
	runs map[uint64]*rendezvous
}

var errRunAborted = errors.New("session: run aborted by its client")

func (hs *hostStream) dispatch(p []byte) error {
	f, err := decodeFrame(p)
	if err != nil {
		return err
	}
	switch f.kind {
	case frameRegister:
		if _, dup := hs.parts[f.handle]; dup {
			return fmt.Errorf("session: partition %d registered twice", f.handle)
		}
		part := compilePartition(f.graph)
		hs.parts[f.handle] = part
		if part.err == nil {
			hs.live++
			hs.h.live.Add(1)
			mPartitions.Add(1)
		}
	case frameRun:
		part := hs.parts[f.handle]
		if part == nil {
			part = &hostPart{err: fmt.Errorf("session: no partition %d registered on this stream", f.handle)}
		}
		rv := newRendezvous()
		for i, k := range f.keys {
			rv.put(k, f.vals[i])
		}
		hs.mu.Lock()
		if _, dup := hs.runs[f.run]; dup {
			hs.mu.Unlock()
			return fmt.Errorf("session: run %d started twice", f.run)
		}
		hs.runs[f.run] = rv
		hs.mu.Unlock()
		hs.wg.Add(1)
		go hs.run(f.run, part, rv)
	case frameTensor, frameHead, frameMore:
		if rv := hs.lookup(f.run); rv != nil {
			if err := rv.deliver(&f); err != nil {
				rv.fail(err)
			}
		}
	case frameAbort:
		if rv := hs.lookup(f.run); rv != nil {
			rv.fail(errRunAborted)
		}
	default:
		return fmt.Errorf("session: unexpected partition frame kind %d on a task", f.kind)
	}
	return nil
}

func (hs *hostStream) lookup(run uint64) *rendezvous {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.runs[run]
}

// run executes one run of a partition and reports it done.
func (hs *hostStream) run(id uint64, part *hostPart, rv *rendezvous) {
	defer hs.wg.Done()
	err := part.err
	if err == nil {
		err = part.prog.run(hs.h.res, nil, rv, func(key uint64, t *tensor.Tensor) error {
			return sendValue(hs.st.Send, id, key, t)
		})
	}
	hs.mu.Lock()
	delete(hs.runs, id)
	hs.mu.Unlock()
	done := &frame{kind: frameDone, run: id}
	if err != nil {
		if done.errMsg = err.Error(); done.errMsg == "" {
			done.errMsg = "partition failed"
		}
	}
	sendFrame(hs.st.Send, done) // fails only once the stream is gone, and with it the waiter
}

// close aborts the stream's runs, waits for them, and drops its partitions.
func (hs *hostStream) close() {
	hs.mu.Lock()
	for _, rv := range hs.runs {
		rv.fail(errors.New("session: partition stream closed"))
	}
	hs.mu.Unlock()
	hs.wg.Wait()
	hs.h.live.Add(-hs.live)
	mPartitions.Add(-hs.live)
}

// compilePartition rebuilds a registered GraphDef and compiles it.
func compilePartition(def []byte) *hostPart {
	g, err := graph.UnmarshalGraph(def)
	if err != nil {
		return &hostPart{err: err}
	}
	prog, err := compile(g)
	return &hostPart{prog: prog, err: err}
}
