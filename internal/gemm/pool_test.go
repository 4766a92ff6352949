package gemm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// drainPool returns once every pool worker has finished every ticket sent
// before the call: it sends one ticket per worker for a job whose chunks
// block until all of them have started, so each worker takes one, and the
// queue is FIFO.
func drainPool() {
	poolMu.Lock()
	n, wake := poolStarted, poolWake
	poolMu.Unlock()
	if n == 0 {
		return
	}
	var entered sync.WaitGroup
	entered.Add(n)
	release := make(chan struct{})
	j := &job{body: func(int, int) { entered.Done(); <-release }, n: n, size: 1, count: int64(n)}
	j.done.Add(n)
	for i := 0; i < n; i++ {
		wake <- j
	}
	entered.Wait()
	close(release)
	j.done.Wait()
}

// Eight goroutines call ParallelFor at once, each chunk making nested
// calls; every index of every call is covered exactly once.
func TestParallelForConcurrentNestedCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers, outer, inner = 8, 23, 97
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				hits := make([]int32, outer*inner)
				ParallelFor(outer, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						ParallelFor(inner, 8, func(jlo, jhi int) {
							for j := jlo; j < jhi; j++ {
								atomic.AddInt32(&hits[i*inner+j], 1)
							}
						})
					}
				})
				for idx, h := range hits {
					if h != 1 {
						t.Errorf("caller %d rep %d: index %d covered %d times", c, rep, idx, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Tickets that reach a worker after their call returned run no body: the
// call's chunks were all claimed before it returned.
func TestStaleTicketsRunNoBody(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var late, wrong atomic.Int32
	for call := 0; call < 500; call++ {
		var returned atomic.Bool
		var chunks atomic.Int32
		ParallelFor(64, 1, func(lo, hi int) {
			if returned.Load() {
				late.Add(1)
			}
			chunks.Add(1)
		})
		returned.Store(true)
		if chunks.Load() != 4 {
			wrong.Add(1)
		}
	}
	drainPool()
	if n := late.Load(); n != 0 {
		t.Fatalf("%d chunk bodies ran after their ParallelFor returned", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d calls did not run exactly 4 chunks", n)
	}
}

// allocsPerCall is testing.AllocsPerRun (one warm-up call, then the mean
// rounded down) without its GOMAXPROCS(1), under which every ParallelFor
// would run inline.
func allocsPerCall(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// A ParallelFor that splits its range allocates two objects: its job, and
// the body closure, which escapes into the job (2 at the parent as well,
// a WaitGroup in place of the job).
func TestParallelForAllocs(t *testing.T) {
	const want = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x := make([]float64, 4096)
	got := allocsPerCall(200, func() {
		ParallelFor(len(x), 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i]++
			}
		})
	})
	drainPool()
	if got > want {
		t.Fatalf("a 4-chunk ParallelFor makes %v allocations, want at most %d", got, want)
	}
}
