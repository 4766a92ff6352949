package serving

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

// newLinearService serves a fresh linear model and returns it plus its
// registry.
func newLinearService(t *testing.T, d int, opts BatchOptions) (*Service, *tensor.Tensor) {
	t.Helper()
	w := linearWeights(d, 1)
	svc := NewService(NewRegistry(), opts)
	mv, err := NewLinear("lin", 1, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, w
}

// gate holds session runs of a gated model inside the session until the
// test lets them go, so "every runner is busy" is a state a test can set up
// and hold instead of a window it has to hit.
type gate struct {
	entered chan []float64 // one send per session run: column 0 of its batch
	release chan struct{}  // one receive lets one run finish; close opens the gate for good
	once    sync.Once
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func init() {
	ops.Register(&ops.OpDef{Name: "ServingTestGate", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Kernel: func(ctx *ops.Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
			g := ctx.Attrs["gate"].(*gate)
			n, d := in[0].Shape()[0], in[0].Shape()[1]
			ids := make([]float64, n)
			for i := range ids {
				ids[i] = in[0].F64()[i*d]
			}
			g.entered <- ids
			<-g.release
			return in[0], nil
		}})
}

// newGatedService serves a linear model "lin" with no row kernel whose
// every session run passes through the returned gate.
func newGatedService(t *testing.T, d int, opts BatchOptions) (*Service, *Batcher, *gate) {
	t.Helper()
	gt := &gate{entered: make(chan []float64, 1024), release: make(chan struct{})} // entered never blocks a run in these tests
	g := graph.New()
	in := g.Placeholder("input", tensor.Float64, nil)
	held := g.AddNamedOp("gate", "ServingTestGate", graph.Attrs{"gate": gt}, in)
	wv := g.AddNamedOp("w", "Variable", graph.Attrs{"var_name": "w"})
	g.AddNamedOp("output", "MatVec", nil, held, wv)
	sig := Signature{InputName: "input", OutputName: "output", Features: d, DType: tensor.Float64}
	mv, err := NewModelVersion("lin", 1, g, sig, map[string]*tensor.Tensor{"w": linearWeights(d, 1)})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(NewRegistry(), opts)
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	t.Cleanup(gt.open) // runs first: a failed test must not leave Close waiting on a held run
	b, err := svc.batcher("lin")
	if err != nil {
		t.Fatal(err)
	}
	return svc, b, gt
}

// idRow is a [d] row whose first feature is id, which the gate reports.
func idRow(d int, id float64) *tensor.Tensor {
	row := make([]float64, d)
	row[0] = id
	return tensor.FromF64(tensor.Shape{d}, row)
}

// waitFor yields until cond holds: tests wait on the batcher's state, never
// on the clock.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// state reads the batcher's slot and queue counts together.
func (b *Batcher) state() (running, pending int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.running, len(b.queue)
}

func (b *Batcher) idleNow() bool {
	running, pending := b.state()
	return running == 0 && pending == 0
}

// predictAsync sends one row from its own goroutine; the outcome arrives on
// the returned channel.
func predictAsync(svc *Service, row *tensor.Tensor, deadline time.Time) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := svc.Predict("lin", row, deadline)
		done <- err
	}()
	return done
}

const farDeadline = time.Hour // anything that still waited for company would hang the test

// TestBatcherLoneRowAnsweredAtOnce: an idle batcher answers a single row
// with no second arrival and no timer — as exactly one batch.
func TestBatcherLoneRowAnsweredAtOnce(t *testing.T) {
	for _, kernel := range []bool{true, false} {
		svc, _ := newLinearService(t, 8, BatchOptions{DefaultDeadline: farDeadline})
		if !kernel {
			svc.Registry().Active("lin").rowKernel = nil
		}
		if _, err := svc.Predict("lin", idRow(8, 1), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if s := svc.Snapshots()[0]; s.Batches != 1 || s.Rows != 1 {
			t.Fatalf("kernel=%v: lone row gave rows=%d batches=%d, want 1/1", kernel, s.Rows, s.Batches)
		}
	}
}

// TestBatcherQueuedRowsFormOneFIFOBatch: rows that queue behind Runners busy
// leaders leave as exactly one batch of min(k, MaxBatch), oldest first, the
// moment a leader finishes.
func TestBatcherQueuedRowsFormOneFIFOBatch(t *testing.T) {
	const d, runners, maxBatch, k = 4, 2, 4, 6
	svc, b, gt := newGatedService(t, d, BatchOptions{MaxBatch: maxBatch, Runners: runners, DefaultDeadline: farDeadline})
	var done []<-chan error
	for i := 0; i < runners; i++ {
		done = append(done, predictAsync(svc, idRow(d, float64(100+i)), time.Time{}))
		if ids := <-gt.entered; len(ids) != 1 {
			t.Fatalf("leader %d ran a batch of %d on an idle batcher", i, len(ids))
		}
	}
	for i := 0; i < k; i++ {
		done = append(done, predictAsync(svc, idRow(d, float64(i)), time.Time{}))
		waitFor(t, "row to queue", func() bool { return b.Pending() == i+1 })
	}
	gt.release <- struct{}{} // one leader finishes and promotes the head of the queue
	ids := <-gt.entered
	if len(ids) != maxBatch {
		t.Fatalf("queued rows left as a batch of %d, want %d", len(ids), maxBatch)
	}
	for i, id := range ids {
		if id != float64(i) {
			t.Fatalf("batch order %v is not FIFO", ids)
		}
	}
	if p := b.Pending(); p != k-maxBatch {
		t.Fatalf("pending %d after the batch sealed, want %d", p, k-maxBatch)
	}
	gt.open()
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestBatcherMaxBatchOneNeverCoalesces(t *testing.T) {
	const d, k = 4, 5
	svc, b, gt := newGatedService(t, d, BatchOptions{MaxBatch: 1, Runners: 1, DefaultDeadline: farDeadline})
	done := []<-chan error{predictAsync(svc, idRow(d, 0), time.Time{})}
	<-gt.entered
	for i := 1; i <= k; i++ {
		done = append(done, predictAsync(svc, idRow(d, float64(i)), time.Time{}))
		waitFor(t, "row to queue", func() bool { return b.Pending() == i })
	}
	gt.open()
	for _, ch := range done {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if s := svc.Snapshots()[0]; s.Batches != k+1 || s.Rows != k+1 || s.MaxBatch != 1 {
		t.Fatalf("MaxBatch=1 coalesced: %+v", s)
	}
}

// TestBatcherConvoy is the regression test for the trap natural batching
// falls into without the leader's one yield: whoever wakes first after a
// flush seals alone, and a loaded service runs one session per row. Every
// caller must also get exactly its own row's answer, bit-identical to an
// unbatched run.
func TestBatcherConvoy(t *testing.T) {
	const d, clients, perClient = 48, 16, 200
	svc, w := newLinearService(t, d, BatchOptions{MaxBatch: 16, DefaultDeadline: farDeadline})
	svc.Registry().Active("lin").rowKernel = nil
	ref := NewLinearMust(t, w)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				in := randRows(1, d, uint64(c*1000+k))
				got, err := svc.Predict("lin", sliceRow(in, 0), time.Time{})
				if err != nil {
					errs[c] = err
					return
				}
				want, err := ref.Predict(in)
				if err != nil {
					errs[c] = err
					return
				}
				if got.F64()[0] != want.F64()[0] {
					errs[c] = errors.New("batched result differs from unbatched")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	s := svc.Snapshots()[0]
	if s.Rows != clients*perClient {
		t.Fatalf("rows %d, want %d", s.Rows, clients*perClient)
	}
	if s.MaxBatch < 2 || s.Batches*2 > s.Rows {
		t.Fatalf("%d closed-loop clients ran %d rows in %d batches (max %d): batches collapsed",
			clients, s.Rows, s.Batches, s.MaxBatch)
	}
}

func TestBatcherDeadline(t *testing.T) {
	svc, _ := newLinearService(t, 8, BatchOptions{})
	in := randRows(1, 8, 1)
	// A deadline already in the past must resolve as ErrDeadline, counted.
	_, err := svc.Predict("lin", sliceRow(in, 0), time.Now().Add(-time.Second))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if s := svc.Snapshots()[0]; s.Expired != 1 || s.Rows != 0 {
		t.Fatalf("expired row miscounted: %+v", s)
	}
}

// TestBatcherExpiredQueuedRowNeverRuns: a row whose deadline passes while it
// is queued is taken out of the queue — the session never sees it — and is
// counted expired exactly once.
func TestBatcherExpiredQueuedRowNeverRuns(t *testing.T) {
	const d = 4
	svc, b, gt := newGatedService(t, d, BatchOptions{Runners: 1, DefaultDeadline: farDeadline})
	leader := predictAsync(svc, idRow(d, 1), time.Time{})
	<-gt.entered
	late := predictAsync(svc, idRow(d, 2), time.Now().Add(10*time.Millisecond))
	if err := <-late; !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued row past its deadline: want ErrDeadline, got %v", err)
	}
	if p := b.Pending(); p != 0 {
		t.Fatalf("expired row still queued (pending %d)", p)
	}
	gt.open()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batcher idle", b.idleNow)
	if s := svc.Snapshots()[0]; s.Rows != 1 || s.Batches != 1 || s.Expired != 1 || s.Errors != 0 {
		t.Fatalf("want 1 row run, 1 expired: %+v", s)
	}
	if len(gt.entered) != 0 {
		t.Fatalf("the expired row reached the session: %v", <-gt.entered)
	}
}

// TestBatcherPromoteVsExpire races a queued row's deadline against its
// promotion to leader. Whichever wins, the runner slot must survive: a
// promoted row whose timer fired first still has to lead, or the batcher
// wedges with running stuck at Runners.
func TestBatcherPromoteVsExpire(t *testing.T) {
	const d, rounds = 4, 300
	svc, b, gt := newGatedService(t, d, BatchOptions{Runners: 1, DefaultDeadline: farDeadline})
	var expired int64
	for i := 0; i < rounds; i++ {
		first := predictAsync(svc, idRow(d, 1), time.Time{})
		<-gt.entered
		second := predictAsync(svc, idRow(d, 2), time.Now().Add(time.Duration(i%30)*10*time.Microsecond))
		waitFor(t, "second row queued or expired", func() bool { return b.Pending() == 1 || len(second) == 1 })
		gt.release <- struct{}{} // the leader finishes: promotion races the timer
		if err := <-first; err != nil {
			t.Fatalf("round %d: leader: %v", i, err)
		}
		// The raced row either expires or runs (and is then at the gate);
		// the request after it must be answered either way.
		third := predictAsync(svc, idRow(d, 3), time.Time{})
		for secondDone, thirdDone := false, false; !secondDone || !thirdDone; {
			select {
			case err := <-second:
				secondDone = true
				if errors.Is(err, ErrDeadline) {
					expired++
				} else if err != nil {
					t.Fatalf("round %d: raced row: %v", i, err)
				}
			case err := <-third:
				thirdDone = true
				if err != nil {
					t.Fatalf("round %d: request after the race: %v", i, err)
				}
			case <-gt.entered:
			case gt.release <- struct{}{}:
			}
		}
		waitFor(t, "slot freed", b.idleNow)
		for len(gt.entered) > 0 {
			<-gt.entered
		}
	}
	s := svc.Snapshots()[0]
	if s.Expired != expired || s.Rows+s.Expired != 3*rounds || s.Errors != 0 {
		t.Fatalf("callers saw %d expired of %d; stats %+v", expired, 3*rounds, s)
	}
	t.Logf("%d of %d raced rows expired", expired, rounds)
}

// TestBatcherConservation: under load with short deadlines, a shallow queue
// and malformed rows, every request resolves exactly once — admitted = ok +
// expired + errors, rejections counted apart — and the batcher returns to
// empty.
func TestBatcherConservation(t *testing.T) {
	const d, clients, perClient = 32, 24, 120
	svc, _ := newLinearService(t, d, BatchOptions{MaxBatch: 4, QueueDepth: 6, Runners: 1})
	svc.Registry().Active("lin").rowKernel = nil
	b, _ := svc.batcher("lin")
	depth0 := mBatchQueueDepth.Value()

	var ok, expired, rejected, bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				row, deadline := idRow(d, float64(k)), time.Now().Add(time.Second)
				switch (c + k) % 5 {
				case 0:
					deadline = time.Now().Add(time.Duration(k) * time.Microsecond)
				case 1:
					row = idRow(d+1, 0)
				}
				_, err := svc.Predict("lin", row, deadline)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrDeadline):
					expired.Add(1)
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, ErrBadInput):
					bad.Add(1)
				default:
					t.Errorf("unexpected outcome: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	s := svc.Snapshots()[0]
	if s.Rows != ok.Load() || s.Expired != expired.Load() || s.Rejected != rejected.Load() || s.Errors != bad.Load() {
		t.Fatalf("stats %+v; callers saw ok=%d expired=%d rejected=%d bad=%d",
			s, ok.Load(), expired.Load(), rejected.Load(), bad.Load())
	}
	if total := s.Rows + s.Expired + s.Rejected + s.Errors; total != clients*perClient {
		t.Fatalf("%d outcomes for %d requests", total, clients*perClient)
	}
	if !b.idleNow() || mBatchQueueDepth.Value() != depth0 {
		t.Fatalf("not empty at idle: pending %d, depth gauge moved %d", b.Pending(), mBatchQueueDepth.Value()-depth0)
	}
	t.Logf("ok=%d expired=%d rejected=%d bad=%d", ok.Load(), expired.Load(), rejected.Load(), bad.Load())
}

func TestBatcherBackpressure(t *testing.T) {
	// Queue depth 1 and one runner, busy: the next row queues and everything
	// after it is rejected (admission control prefers rejecting to unbounded
	// queueing) until the runner moves again.
	const d, burst = 4, 50
	svc, b, gt := newGatedService(t, d, BatchOptions{
		MaxBatch: 1, QueueDepth: 1, Runners: 1, DefaultDeadline: farDeadline,
	})
	admitted := []<-chan error{predictAsync(svc, idRow(d, 0), time.Time{})}
	<-gt.entered
	admitted = append(admitted, predictAsync(svc, idRow(d, 1), time.Time{}))
	waitFor(t, "row to queue", func() bool { return b.Pending() == 1 })
	for i := 0; i < burst; i++ {
		if _, err := svc.Predict("lin", idRow(d, 2), time.Time{}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("row %d against a full queue: want ErrOverloaded, got %v", i, err)
		}
	}
	gt.open()
	for _, ch := range admitted {
		if err := <-ch; err != nil {
			t.Fatalf("admitted row: %v", err)
		}
	}
	if s := svc.Snapshots()[0]; s.Rejected != burst || s.Rows != 2 {
		t.Fatalf("rejected counter %d (callers saw %d), rows %d (want 2)", s.Rejected, burst, s.Rows)
	}
}

func TestBatcherBadRowDoesNotPoisonBatch(t *testing.T) {
	const d = 16
	svc, b, gt := newGatedService(t, d, BatchOptions{MaxBatch: 8, Runners: 1, DefaultDeadline: farDeadline})
	ref := NewLinearMust(t, linearWeights(d, 1))

	leader := predictAsync(svc, idRow(d, 0), time.Time{})
	<-gt.entered
	// A malformed row (wrong width) and a well-formed one queue behind the
	// busy runner and are sealed into the same batch.
	badErr := predictAsync(svc, tensor.New(tensor.Float64, d+1), time.Time{})
	waitFor(t, "bad row to queue", func() bool { return b.Pending() == 1 })
	in := randRows(1, d, 5)
	var got *tensor.Tensor
	goodErr := make(chan error, 1)
	go func() {
		var err error
		got, err = svc.Predict("lin", sliceRow(in, 0), time.Time{})
		goodErr <- err
	}()
	waitFor(t, "good row to queue", func() bool { return b.Pending() == 2 })
	gt.open()

	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-badErr; !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad row: want ErrBadInput, got %v", err)
	}
	if err := <-goodErr; err != nil {
		t.Fatalf("good row poisoned by batch-mate: %v", err)
	}
	want, err := ref.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if got.F64()[0] != want.F64()[0] {
		t.Fatalf("good row answer wrong after sharing a batch with a bad row")
	}
	if s := svc.Snapshots()[0]; s.Batches != 2 || s.Rows != 2 || s.Errors != 1 {
		t.Fatalf("want the bad and good rows sealed into one batch: %+v", s)
	}
}

// TestBatcherCloseOwnsNoGoroutines: the batcher runs on its callers'
// goroutines only — none before, during or after — and Close returns only
// once everything admitted has been answered.
func TestBatcherCloseOwnsNoGoroutines(t *testing.T) {
	const d, queued = 4, 3
	base := runtime.NumGoroutine()
	svc, b, gt := newGatedService(t, d, BatchOptions{Runners: 1, DefaultDeadline: farDeadline})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("an idle batcher owns %d goroutines", n-base)
	}
	done := []<-chan error{predictAsync(svc, idRow(d, 0), time.Time{})}
	<-gt.entered
	for i := 1; i <= queued; i++ {
		done = append(done, predictAsync(svc, idRow(d, float64(i)), time.Time{}))
		waitFor(t, "row to queue", func() bool { return b.Pending() == i })
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to take effect", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	// The callers, the closer, and the session executor's goroutine for the
	// node held at the gate.
	if n := runtime.NumGoroutine(); n > base+queued+3 {
		t.Fatalf("a busy batcher owns %d goroutines", n-(base+queued+3))
	}
	if _, err := b.Predict(idRow(d, 9), time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close: want ErrClosed, got %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with rows still queued")
	default:
	}
	gt.open()
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("row %d admitted before Close: %v", i, err)
		}
	}
	<-closed
	if !b.idleNow() {
		t.Fatal("Close returned before the batcher was idle")
	}
	waitFor(t, "callers to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestBatcherTelemetryContract pins what benchmark/serving.go divides:
// every admitted row observes queue wait exactly once, and every flush —
// the one-row kernel case included — is one batch in Stats and in
// /metricz. A counter that inline leaders skipped would turn the
// benchmark's means into NaN.
func TestBatcherTelemetryContract(t *testing.T) {
	const d, inline, queued, maxBatch = 4, 100, 100, 32
	type counts struct{ rows, batches, waits, sizes, depth int64 }
	read := func() counts {
		return counts{mBatchRows.Value(), mBatchBatches.Value(), mBatchQueueWait.Count(),
			mBatchSizeRows.Count(), mBatchQueueDepth.Value()}
	}
	check := func(what string, before counts, s StatsSnapshot, rows, batches int64) {
		t.Helper()
		got, want := read(), counts{before.rows + rows, before.batches + batches,
			before.waits + rows, before.sizes + batches, before.depth}
		if got != want || s.Rows != rows || s.Batches != batches || s.Pending != 0 {
			t.Fatalf("%s: telemetry moved %+v → %+v, want %+v; stats %+v, want rows=%d batches=%d",
				what, before, got, want, s, rows, batches)
		}
	}

	before := read()
	svc, _ := newLinearService(t, d, BatchOptions{MaxBatch: maxBatch, DefaultDeadline: farDeadline})
	for i := 0; i < inline; i++ {
		if _, err := svc.Predict("lin", idRow(d, float64(i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	check("inline rows through the row kernel", before, svc.Snapshots()[0], inline, inline)

	before = read()
	gsvc, b, gt := newGatedService(t, d, BatchOptions{MaxBatch: maxBatch, Runners: 1, DefaultDeadline: farDeadline})
	done := []<-chan error{predictAsync(gsvc, idRow(d, 0), time.Time{})}
	<-gt.entered
	for i := 1; i <= queued; i++ {
		done = append(done, predictAsync(gsvc, idRow(d, float64(i)), time.Time{}))
	}
	waitFor(t, "rows to queue", func() bool { return b.Pending() == queued })
	if got := mBatchQueueDepth.Value() - before.depth; got != queued {
		t.Fatalf("depth gauge reads %d with %d rows queued", got, queued)
	}
	gt.open()
	for _, ch := range done {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "batcher idle", b.idleNow)
	// The leader alone, then the queue in full batches and a remainder.
	check("queued rows", before, gsvc.Snapshots()[0], 1+queued, 1+(queued+maxBatch-1)/maxBatch)
}

func TestServiceMultiRowRequest(t *testing.T) {
	const d, n, maxBatch = 24, 9, 4
	svc, w := newLinearService(t, d, BatchOptions{MaxBatch: maxBatch})
	ref := NewLinearMust(t, w)
	in := randRows(n, d, 21)
	got, err := svc.Predict("lin", in, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("multi-row request: got %v want %v", got, want)
	}
	// One admission: the caller leads its own rows in full batches.
	if s := svc.Snapshots()[0]; s.Rows != n || s.Batches != (n+maxBatch-1)/maxBatch || s.MaxBatch != maxBatch {
		t.Fatalf("%d rows at MaxBatch %d ran as %+v", n, maxBatch, s)
	}
}

// TestServiceMultiRowRejectsWhole: a batch request that does not fit the
// queue fails as a whole with ErrOverloaded, and the rows of it that were
// admitted still leave the batcher empty.
func TestServiceMultiRowRejectsWhole(t *testing.T) {
	const d, n = 4, 12
	svc, _ := newLinearService(t, d, BatchOptions{MaxBatch: 2, QueueDepth: 4, Runners: 1})
	if _, err := svc.Predict("lin", randRows(n, d, 3), time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	b, _ := svc.batcher("lin")
	if s := svc.Snapshots()[0]; s.Rows != 5 || s.Rejected != n-5 || !b.idleNow() {
		t.Fatalf("leader row + 4 queued should run, %d be rejected: %+v", n-5, s)
	}
}

func TestServiceUnknownModel(t *testing.T) {
	svc, _ := newLinearService(t, 4, BatchOptions{})
	if _, err := svc.Predict("nope", tensor.New(tensor.Float64, 4), time.Time{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestServiceNonFloatInput(t *testing.T) {
	// Wire clients can send any dtype; a non-float batch must come back as
	// ErrBadInput, not panic in the row slicer.
	svc, _ := newLinearService(t, 4, BatchOptions{})
	for _, in := range []*tensor.Tensor{
		tensor.New(tensor.Int32, 2, 4),
		tensor.New(tensor.Int64, 4),
		tensor.New(tensor.Complex128, 2, 4),
	} {
		if _, err := svc.Predict("lin", in, time.Time{}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%v input: want ErrBadInput, got %v", in.DType(), err)
		}
	}
}
