// Package gemm is the dense-compute engine behind the runtime's linear
// algebra kernels: a packed, register-blocked GEMM (BLAS-3 style blocking
// over M/N/K with cache-resident panels and an unrolled micro-kernel),
// matrix-vector and fused vector kernels, and the persistent worker pool
// every op kernel shares.
//
// On amd64 hosts with AVX and FMA the micro-kernels are hand-written
// assembly (6×16 float32, 6×8 float64), and so are the matrix-vector
// kernels (eight rows per call, bit-identical to the portable loop);
// everywhere else a portable 4×4 register-blocked Go kernel and the
// portable row loop are used. Selection happens once at init and can be
// forced to the portable path with TFHPC_NOSIMD=1.
//
// All kernels follow IEEE semantics: no value-dependent shortcuts, so NaN
// and Inf propagate exactly as a naive triple loop would.
package gemm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one ParallelFor call: count chunks of size iterations over [0, n).
type job struct {
	body    func(lo, hi int)
	n, size int
	count   int64
	next    atomic.Int64   // the next unclaimed chunk
	done    sync.WaitGroup // one per chunk, released once the chunk has run
}

// claim runs unclaimed chunks until none is left. A stale ticket (one
// that arrives after every chunk is claimed) runs no body.
func (j *job) claim() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.count {
			return
		}
		lo := int(c) * j.size
		j.body(lo, min(lo+j.size, j.n))
		j.done.Done()
	}
}

var (
	poolMu      sync.Mutex
	poolStarted int // workers spawned so far (they never exit)
	// poolWake carries wake-up tickets. 1024 outlasts any burst of calls a
	// few workers serve; past it a ticket is dropped, never blocked on.
	poolWake chan *job
)

// ensureWorkers grows the persistent pool to at least n workers. Workers
// park on the ticket queue between calls, so steady-state ParallelFor does
// no goroutine creation. The pool only ever grows; when GOMAXPROCS shrinks,
// ParallelFor simply sends fewer tickets and the extra workers idle.
func ensureWorkers(n int) chan *job {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolWake == nil {
		poolWake = make(chan *job, 1024)
	}
	for poolStarted < n {
		poolStarted++
		go func() {
			for j := range poolWake {
				j.claim()
			}
		}()
	}
	return poolWake
}

// Workers returns the current parallelism bound. It follows
// runtime.GOMAXPROCS(0) on every call, so tests and operators can bound
// kernel parallelism at runtime.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ParallelFor splits [0, n) into at most Workers() contiguous chunks of
// ceil(n/chunks) iterations, at least grain each, and runs body(lo, hi) on
// each. Chunks bind at run time: the call posts a wake-up ticket per helper
// it could use, then the caller and every pool worker that wakes claim
// chunks until none is left. The caller waits only for chunks a running
// worker has claimed, never for a worker that has not started, so nested
// calls cannot deadlock the pool. Small ranges run inline.
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := min(n/grain, Workers())
	if chunks <= 1 {
		body(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	j := &job{body: body, n: n, size: size, count: int64((n + size - 1) / size)}
	j.done.Add(int(j.count))
	wake := ensureWorkers(int(j.count) - 1)
	for i := int64(1); i < j.count; i++ {
		select {
		case wake <- j:
		default: // queue full: drop the ticket
		}
	}
	j.claim()
	j.done.Wait()
}
