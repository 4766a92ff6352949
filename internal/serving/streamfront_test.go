package serving

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

// startStreamServer hosts one Service behind a plain rpc.Server with the
// serving endpoints attached.
func startStreamServer(t testing.TB, d int, scale float64) (string, *Service) {
	t.Helper()
	svc := NewService(NewRegistry(), BatchOptions{MaxBatch: 8})
	mv, err := NewLinear("lin", 1, linearWeights(d, scale))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return serveStream(t, svc), svc
}

// serveStream attaches svc's serving endpoints to a fresh rpc.Server and
// returns its address; the server closes before svc does.
func serveStream(t testing.TB, svc *Service) string {
	t.Helper()
	srv := rpc.NewServer()
	Attach(srv, svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestStreamPredictMatchesLocal drives rows and a batch through the
// streaming endpoint and checks bit-identity with the local batcher path.
func TestStreamPredictMatchesLocal(t *testing.T) {
	const d = 32
	addr, svc := startStreamServer(t, d, 1)
	c := rpc.Dial(addr)
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	for k := 0; k < 20; k++ {
		row := sliceRow(randRows(1, d, uint64(100+k)), 0)
		got, err := ps.Predict("lin", row, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc.Predict("lin", row, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if got.F64()[0] != want.F64()[0] {
			t.Fatalf("row %d: stream %v != local %v", k, got.F64()[0], want.F64()[0])
		}
	}

	// A rank-2 batch rides the same stream through the general path.
	batch := randRows(5, d, 777)
	got, err := ps.Predict("lin", batch, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Predict("lin", batch, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.F64()) != 5 {
		t.Fatalf("batch result length %d, want 5", len(got.F64()))
	}
	for i := range want.F64() {
		if got.F64()[i] != want.F64()[i] {
			t.Fatalf("batch row %d: stream %v != local %v", i, got.F64()[i], want.F64()[i])
		}
	}

	// Float32 rows take the same fast path in the model's native dtype.
	mv32, err := NewLinear("lin32", 1, tensor.RandomUniform(tensor.Float32, 5, d))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv32); err != nil {
		t.Fatal(err)
	}
	row32 := tensor.RandomUniform(tensor.Float32, 9, d)
	got32, err := ps.Predict("lin32", row32, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	want32, err := svc.Predict("lin32", row32, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got32.F32()[0] != want32.F32()[0] {
		t.Fatalf("f32 row: stream %v != local %v", got32.F32()[0], want32.F32()[0])
	}
}

// TestStreamPredictErrors checks the canonical outcomes cross the stream as
// their exact error values.
func TestStreamPredictErrors(t *testing.T) {
	const d = 8
	addr, _ := startStreamServer(t, d, 1)
	c := rpc.Dial(addr)
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	if _, err := ps.Predict("nosuch", sliceRow(randRows(1, d, 1), 0), time.Time{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model: %v, want ErrNotFound", err)
	}
	if _, err := ps.Predict("lin", sliceRow(randRows(1, d+3, 2), 0), time.Time{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong width: %v, want ErrBadInput", err)
	}
	if _, err := ps.Predict("lin", tensor.New(tensor.Int32, d), time.Time{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("non-float row: %v, want ErrBadInput", err)
	}
	// A spent budget resolves client-side, before any frame goes out.
	if _, err := ps.Predict("lin", sliceRow(randRows(1, d, 3), 0), time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline: %v, want ErrDeadline", err)
	}
	// The stream survives all of the above.
	if _, err := ps.Predict("lin", sliceRow(randRows(1, d, 4), 0), time.Time{}); err != nil {
		t.Fatalf("stream broken after application errors: %v", err)
	}
}

// TestStreamPredictStatusRoundTrip pins the status-byte mapping: every
// canonical error survives the wire exactly.
func TestStreamPredictStatusRoundTrip(t *testing.T) {
	for _, canon := range []error{ErrNotFound, ErrOverloaded, ErrDeadline, ErrBadInput, ErrClosed} {
		st := statusOf(fmt.Errorf("wrapped: %w", canon))
		back := errOfStatus(st, nil)
		if !errors.Is(back, canon) {
			t.Fatalf("status %d decoded to %v, want %v", st, back, canon)
		}
		if isTransportErr(back) {
			t.Fatalf("%v classified as transport error", back)
		}
	}
	other := errors.New("kernel exploded")
	back := errOfStatus(statusOf(other), []byte(other.Error()))
	if back == nil || back.Error() != "serving: remote predict error: kernel exploded" {
		t.Fatalf("opaque error round trip: %v", back)
	}
}

// TestStreamPredictHotSwap checks that an open stream tracks a hot-swap: the
// row kernel must come from the swapped-in version.
func TestStreamPredictHotSwap(t *testing.T) {
	const d = 16
	addr, svc := startStreamServer(t, d, 1)
	c := rpc.Dial(addr)
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	row := sliceRow(randRows(1, d, 42), 0)
	before, err := ps.Predict("lin", row, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	mv2, err := NewLinear("lin", 2, linearWeights(d, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv2); err != nil {
		t.Fatal(err)
	}
	after, err := ps.Predict("lin", row, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if after.F64()[0] == before.F64()[0] {
		t.Fatal("stream still answers with the retired version after a hot-swap")
	}
	want, err := svc.Predict("lin", row, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if after.F64()[0] != want.F64()[0] {
		t.Fatalf("post-swap result %v, want %v", after.F64()[0], want.F64()[0])
	}
}

// TestRouterStreamingMatchesLocal routes traffic over pooled predict
// streams and checks every answer bit-for-bit against the in-process
// Service.Predict of the same fleet; the router must actually have pooled
// streams afterwards.
func TestRouterStreamingMatchesLocal(t *testing.T) {
	const replicas, d = 2, 24
	l, svcs := startReplicaFleet(t, replicas, d)
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for k := 0; k < 30; k++ {
		row := sliceRow(randRows(1, d, uint64(900+k)), 0)
		got, err := r.Predict("lin", row, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := svcs[k%replicas].Predict("lin", row, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.F64()[0]) != math.Float64bits(want.F64()[0]) {
			t.Fatalf("row %d: routed %v != in-process %v", k, got.F64()[0], want.F64()[0])
		}
	}
	pooled := 0
	for _, rep := range r.replicas {
		pooled += len(rep.streams)
	}
	if pooled == 0 {
		t.Fatal("router pooled no predict streams")
	}
}

// TestStreamPredictAllocs is the serving-tier allocation gate: a steady-state
// streaming predict round trip — client encode, stream frames both ways, the
// server's decode + row kernel + response encode — may not allocate on
// either side.
func TestStreamPredictAllocs(t *testing.T) {
	const d = 256
	addr, _ := startStreamServer(t, d, 1)
	c := rpc.Dial(addr)
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	row := sliceRow(randRows(1, d, 5), 0)
	predict := func() {
		out, err := ps.Predict("lin", row, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		tensor.Recycle(out)
	}
	for i := 0; i < 200; i++ {
		predict()
	}
	if avg := testing.AllocsPerRun(300, predict); avg != 0 {
		t.Fatalf("streaming predict allocates %.2f allocs/op, want 0", avg)
	}
}

// TestStreamPredictCountsInMetricz: rows a streaming predict serves through
// the row kernel, and rows it finds expired, count in the batcher's
// /metricz series exactly as in its /statsz counters.
func TestStreamPredictCountsInMetricz(t *testing.T) {
	const d, n = 16, 7
	addr, svc := startStreamServer(t, d, 1)
	c := rpc.Dial(addr)
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	rows, batches, sizes, expired := mBatchRows.Value(), mBatchBatches.Value(), mBatchSizeRows.Count(), mBatchExpired.Value()
	row := sliceRow(randRows(1, d, 3), 0)
	for i := 0; i < n; i++ {
		if _, err := ps.Predict("lin", row, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// A client drops a row that expired before it was sent, so the expired
	// row goes to the front's row path directly.
	mv, err := svc.reg.acquireRef("lin")
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(mv.sig.DType, mv.rowOutShape...)
	mv.release()
	if err := svc.PredictRowInto("lin", row, out, time.Now().Add(-time.Second)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired row: want ErrDeadline, got %v", err)
	}
	got := [4]int64{mBatchRows.Value() - rows, mBatchBatches.Value() - batches, mBatchSizeRows.Count() - sizes, mBatchExpired.Value() - expired}
	if want := [4]int64{n, n, n, 1}; got != want {
		t.Fatalf("rows, batches, batch_rows count, expired moved by %v, want %v", got, want)
	}
	if s := svc.Snapshots()[0]; s.Rows != n || s.Expired != 1 {
		t.Fatalf("statsz %+v, want %d rows and 1 expired", s, n)
	}
}

// TestStreamPredictAdmitted: a streamed row on a model with a row kernel is
// admitted by the batcher like any other — it queues while every runner is
// busy, a zero budget takes DefaultDeadline and expires there, a full queue
// rejects, and every row records its queue wait.
func TestStreamPredictAdmitted(t *testing.T) {
	const d, n = 8, 5
	// The default deadline must outlast the checks made while the row is
	// queued, on a loaded machine too.
	svc, _ := newLinearService(t, d, BatchOptions{Runners: 1, QueueDepth: 1, DefaultDeadline: 500 * time.Millisecond})
	b, _ := svc.batcher("lin")
	c := rpc.Dial(serveStream(t, svc))
	defer c.Close()
	ps, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	// An in-process leader holds the only runner slot inside the row kernel.
	blocker, gt := idRow(d, 1), &gate{entered: make(chan []float64, 1), release: make(chan struct{})}
	t.Cleanup(gt.open) // runs first: a failed test must not leave Close waiting on the leader
	mv := svc.Registry().Active("lin")
	kernel := mv.rowKernel
	mv.rowKernel = func(row, out *tensor.Tensor) {
		if row == blocker {
			gt.entered <- nil
			<-gt.release
		}
		kernel(row, out)
	}
	held := predictAsync(svc, blocker, time.Time{})
	<-gt.entered

	before := svc.Snapshots()[0]
	done := make(chan error, 1)
	go func() {
		_, err := ps.Predict("lin", idRow(d, 2), time.Time{})
		done <- err
	}()
	waitFor(t, "the streamed row to queue", func() bool { return b.Pending() == 1 || len(done) > 0 })
	if b.Pending() != 1 {
		t.Fatalf("streamed row answered without queueing: %v", <-done)
	}
	ps2, err := OpenPredictStream(c)
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if _, err := ps2.Predict("lin", idRow(d, 3), time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("streamed row on a full queue: %v, want ErrOverloaded", err)
	}
	if err := <-done; !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued streamed row past DefaultDeadline: %v, want ErrDeadline", err)
	}
	if s := svc.Snapshots()[0]; s.Expired-before.Expired != 1 || s.Rejected-before.Rejected != 1 {
		t.Fatalf("expired moved by %d, rejected by %d, want 1 and 1", s.Expired-before.Expired, s.Rejected-before.Rejected)
	}
	gt.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batcher idle", b.idleNow)

	waits := mBatchQueueWait.Count()
	for i := range n {
		if _, err := ps.Predict("lin", idRow(d, float64(i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mBatchQueueWait.Count() - waits; got != n {
		t.Fatalf("%d streamed rows recorded %d queue waits", n, got)
	}
}
