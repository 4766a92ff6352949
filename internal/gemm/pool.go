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
)

// poolTask is one contiguous chunk of a ParallelFor dispatched to the pool.
type poolTask struct {
	body   func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolMu      sync.Mutex
	poolStarted int           // workers spawned so far (they never exit)
	poolTasks   chan poolTask // shared run queue; never closed
)

// ensureWorkers grows the persistent pool to at least n workers. Workers
// park on the shared queue between calls, so steady-state ParallelFor does
// no goroutine creation. The pool only ever grows; when GOMAXPROCS shrinks,
// ParallelFor simply dispatches fewer chunks and the extra workers idle.
func ensureWorkers(n int) chan poolTask {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolTasks == nil {
		poolTasks = make(chan poolTask, 1024)
	}
	for poolStarted < n {
		poolStarted++
		go func() {
			for t := range poolTasks {
				t.body(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return poolTasks
}

// Workers returns the current parallelism bound. It follows
// runtime.GOMAXPROCS(0) on every call, so tests and operators can bound
// kernel parallelism at runtime.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ParallelFor splits [0, n) into contiguous chunks of at least grain
// iterations and runs body(lo, hi) across the persistent worker pool. The
// caller executes the final chunk itself and, while waiting, helps drain
// the queue — so nested ParallelFor calls cannot deadlock the pool. Small
// ranges run inline to avoid dispatch overhead.
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := n / grain
	if max := Workers(); chunks > max {
		chunks = max
	}
	if chunks <= 1 {
		body(0, n)
		return
	}
	tasks := ensureWorkers(chunks - 1)
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+size < n {
		wg.Add(1)
		t := poolTask{body: body, lo: lo, hi: lo + size, wg: &wg}
		select {
		case tasks <- t:
		default: // queue full: run inline rather than block
			body(t.lo, t.hi)
			wg.Done()
		}
		lo += size
	}
	body(lo, n)
	// Help-first wait: drain queued tasks (ours or anyone's) until the
	// queue is empty, then block. Any task we still wait on is running on
	// another goroutine, so progress is guaranteed.
	for {
		select {
		case t := <-tasks:
			t.body(t.lo, t.hi)
			t.wg.Done()
		default:
			wg.Wait()
			return
		}
	}
}
