package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/rpc"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/tensor"
)

// startReplicaFleet hosts one serving replica on each worker task of an
// in-process cluster — the deployment shape the router is built for: the
// same cluster.Server that executes training ops co-hosts the predict
// endpoint.
func startReplicaFleet(t *testing.T, replicas, d int) (*cluster.Local, []*Service) {
	t.Helper()
	l, err := cluster.StartLocal(map[string]int{"worker": replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	svcs := make([]*Service, replicas)
	for i := 0; i < replicas; i++ {
		svc := NewService(NewRegistry(), BatchOptions{MaxBatch: 8})
		mv, err := NewLinear("lin", 1, linearWeights(d, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ServeModel(mv); err != nil {
			t.Fatal(err)
		}
		Attach(l.Server("worker", i), svc)
		svcs[i] = svc
		t.Cleanup(svc.Close)
	}
	return l, svcs
}

func TestRouterSpreadsLoad(t *testing.T) {
	const replicas, d = 3, 32
	l, svcs := startReplicaFleet(t, replicas, d)
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ref := NewLinearMust(t, linearWeights(d, 1))
	const clients, perClient = 12, 30
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				in := randRows(1, d, uint64(c*331+k))
				out, err := r.Predict("lin", sliceRow(in, 0), time.Time{})
				if err != nil {
					errs[c] = err
					return
				}
				want, _ := ref.Predict(in)
				if out.F64()[0] != want.F64()[0] {
					errs[c] = fmt.Errorf("routed result differs from reference")
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

	// Least-loaded spreading: with 12 concurrent clients every replica
	// must have seen real traffic.
	served := 0
	var total int64
	for i, svc := range svcs {
		rows := svc.Snapshots()[0].Rows
		total += rows
		if rows > 0 {
			served++
		}
		t.Logf("replica %d served %d rows", i, rows)
	}
	if served < 2 {
		t.Fatalf("traffic not spread: only %d of %d replicas served", served, replicas)
	}
	if total != clients*perClient {
		t.Fatalf("fleet served %d rows, want %d", total, clients*perClient)
	}
}

func TestRouterFailover(t *testing.T) {
	const replicas, d = 3, 16
	l, _ := startReplicaFleet(t, replicas, d)
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	in := randRows(1, d, 1)
	row := sliceRow(in, 0)
	if _, err := r.Predict("lin", row, time.Time{}); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Kill one replica: every subsequent request must still succeed via
	// failover onto the survivors.
	l.Server("worker", 0).Close()
	for k := 0; k < 30; k++ {
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("predict %d after replica loss: %v", k, err)
		}
	}

	var st struct {
		Router RouterStats `json:"router"`
	}
	buf, err := r.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	if st.Router.Failovers == 0 {
		t.Fatalf("no failovers recorded after killing a replica: %+v", st.Router)
	}
	if len(st.Router.Replicas) != replicas {
		t.Fatalf("replica stats: %+v", st.Router)
	}
}

// cannedPredictor is a replica whose outcomes the test dictates: every
// predict and generate fails with the (wrapped) error registered under the
// model name.
type cannedPredictor map[string]error

func (p cannedPredictor) Predict(model string, _ *tensor.Tensor, _ time.Time) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("replica says: %w", p[model])
}
func (p cannedPredictor) Generate(model string, _ generate.Request) (generate.Stream, error) {
	return nil, fmt.Errorf("replica says: %w", p[model])
}
func (cannedPredictor) Models() []ModelStatus      { return nil }
func (cannedPredictor) Ready() bool                { return true }
func (cannedPredictor) StatsJSON() ([]byte, error) { return []byte("{}"), nil }

func TestRouterApplicationErrorsDoNotFailover(t *testing.T) {
	const replicas, d = 2, 8
	l, svcs := startReplicaFleet(t, replicas, d)
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{DefaultDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Unknown model: a deterministic application error — retrying it on
	// another replica of the same fleet is pointless and must not happen.
	if _, err := r.Predict("nope", tensor.New(tensor.Float64, d), time.Time{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound through the router, got %v", err)
	}
	var st struct {
		Router RouterStats `json:"router"`
	}
	buf, _ := r.StatsJSON()
	json.Unmarshal(buf, &st)
	if st.Router.Failovers != 0 || st.Router.Retries != 0 {
		t.Fatalf("application error triggered failover: %+v", st.Router)
	}

	// Wrong feature width maps to ErrBadInput remotely.
	if _, err := r.Predict("lin", tensor.New(tensor.Float64, d+3), time.Time{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput through the router, got %v", err)
	}

	// A non-float tensor over the wire must fail the call cleanly — and
	// must not kill the replica (the follow-up predict proves it's alive).
	if _, err := r.Predict("lin", tensor.New(tensor.Int32, 2, d), time.Time{}); err == nil {
		t.Fatal("int32 batch accepted")
	}
	in := randRows(1, d, 3)
	if _, err := r.Predict("lin", sliceRow(in, 0), time.Time{}); err != nil {
		t.Fatalf("replica dead after malformed request: %v", err)
	}
	_ = svcs

	// The full error contract: each canonical outcome a replica can answer
	// with crosses replica → router as its status byte and comes back as the
	// errors.Is-equal value, without a failover.
	canned := cannedPredictor{
		"notfound": ErrNotFound, "overloaded": ErrOverloaded, "deadline": ErrDeadline,
		"badinput": ErrBadInput, "closed": ErrClosed,
	}
	srv := rpc.NewServer()
	Attach(srv, canned)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cr, err := NewRouter([]string{addr}, RouterOptions{DefaultDeadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	for model, want := range canned {
		if _, err := cr.Predict(model, tensor.New(tensor.Float64, d), time.Time{}); !errors.Is(err, want) {
			t.Fatalf("%s through the router: %v, want %v", model, err, want)
		}
		// The same outcome crosses the generate wire as its error frame.
		if _, err := cr.Generate(model, generate.Request{Prompt: []float64{1}}); !errors.Is(err, want) {
			t.Fatalf("%s generate through the router: %v, want %v", model, err, want)
		}
	}
	if n := cr.failovers.Load(); n != 0 {
		t.Fatalf("canonical outcomes triggered %d failovers", n)
	}
}

func TestRouterModelsAndReady(t *testing.T) {
	const replicas, d = 2, 8
	l, _ := startReplicaFleet(t, replicas, d)
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ms := r.Models()
	if len(ms) != 1 || ms[0].Name != "lin" {
		t.Fatalf("router models: %+v", ms)
	}
	if !r.Ready() {
		t.Fatal("router not ready with healthy replicas")
	}
}

func TestRouterAllReplicasDown(t *testing.T) {
	l, _ := startReplicaFleet(t, 2, 8)
	addrs := append([]string(nil), l.Spec()["worker"]...)
	r, err := NewRouter(addrs, RouterOptions{DefaultDeadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l.Close()
	in := tensor.New(tensor.Float64, 8)
	if _, err := r.Predict("lin", in, time.Time{}); err == nil {
		t.Fatal("predict succeeded with every replica down")
	}
}

// The split is a deterministic stride, so over whole cycles of 100 the
// canary arm takes exactly its percentage — no sampling error for the
// rollout controller's SLO window to argue with.
func TestRouterSplitExactProportions(t *testing.T) {
	const d = 8
	l, svcs := startReplicaFleet(t, 1, d)
	mv, err := NewLinear("lin2", 2, linearWeights(d, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svcs[0].ServeModel(mv); err != nil {
		t.Fatal(err)
	}

	var def, canary int
	r, err := NewRouter(l.Spec()["worker"], RouterOptions{
		DefaultDeadline: 5 * time.Second,
		Observer: func(model string, isCanary bool, latency time.Duration, err error) {
			if model != "lin" {
				t.Errorf("observer saw model %q, want the requested name lin", model)
			}
			if err != nil {
				t.Errorf("observer saw error: %v", err)
			}
			if isCanary {
				canary++
			} else {
				def++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.SetSplit("lin", "lin2", 30); err != nil {
		t.Fatal(err)
	}
	if c, pct, ok := r.SplitOf("lin"); !ok || c != "lin2" || pct != 30 {
		t.Fatalf("SplitOf = (%q, %d, %v)", c, pct, ok)
	}
	row := sliceRow(randRows(1, d, 3), 0)
	for k := 0; k < 200; k++ {
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("predict %d: %v", k, err)
		}
	}
	if canary != 60 || def != 140 {
		t.Fatalf("30%% split over 200 requests gave canary=%d default=%d, want exactly 60/140", canary, def)
	}

	r.ClearSplit("lin")
	for k := 0; k < 100; k++ {
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("post-clear predict %d: %v", k, err)
		}
	}
	if canary != 60 {
		t.Fatalf("canary arm still taking traffic after ClearSplit: %d", canary)
	}

	// Guardrails: invalid percents and degenerate names are refused.
	if err := r.SetSplit("lin", "lin", 10); err == nil {
		t.Fatal("split onto itself was accepted")
	}
	if err := r.SetSplit("lin", "lin2", 101); err == nil {
		t.Fatal("percent 101 was accepted")
	}
}

// Membership is dynamic under live traffic: added replicas start serving,
// removed ones drain first — nothing fails over or drops on either edge.
func TestRouterDynamicMembership(t *testing.T) {
	const d = 8
	l, svcs := startReplicaFleet(t, 3, d)
	addrs := l.Spec()["worker"]
	r, err := NewRouter(addrs[:1], RouterOptions{DefaultDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.AddReplica(addrs[0]); err == nil {
		t.Fatal("duplicate AddReplica was accepted")
	}
	if _, err := r.RemoveReplica("127.0.0.1:1", time.Millisecond); err == nil {
		t.Fatal("removing a non-member was accepted")
	}

	var stop, failed int32
	var wg sync.WaitGroup
	row := sliceRow(randRows(1, d, 5), 0)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				if _, err := r.Predict("lin", row, time.Now().Add(2*time.Second)); err != nil {
					atomic.AddInt32(&failed, 1)
					return
				}
			}
		}()
	}

	for _, a := range addrs[1:] {
		if err := r.AddReplica(a); err != nil {
			t.Fatalf("add %s: %v", a, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := r.NumReplicas(); n != 3 {
		t.Fatalf("NumReplicas = %d, want 3", n)
	}
	clean, err := r.RemoveReplica(addrs[0], 2*time.Second)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if !clean {
		t.Fatal("drain did not complete cleanly")
	}
	time.Sleep(20 * time.Millisecond)
	atomic.StoreInt32(&stop, 1)
	wg.Wait()
	if failed != 0 {
		t.Fatalf("%d requests failed across membership changes", failed)
	}
	// The removed replica must get no traffic after its drain: its rows
	// counter freezes.
	frozen := svcs[0].Snapshots()[0].Rows
	for k := 0; k < 50; k++ {
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("predict after removal: %v", err)
		}
	}
	if got := svcs[0].Snapshots()[0].Rows; got != frozen {
		t.Fatalf("removed replica served %d more rows", got-frozen)
	}
}

// BenchUntilHealthy pins a failed replica on the bench past any backoff;
// only Unbench — the health-probe path — paroles it, after which it serves
// again.
func TestRouterBenchUntilHealthyAndUnbench(t *testing.T) {
	const d = 8
	l, _ := startReplicaFleet(t, 2, d)
	addrs := l.Spec()["worker"]
	r, err := NewRouter(addrs, RouterOptions{
		DefaultDeadline:   5 * time.Second,
		FailBackoff:       10 * time.Millisecond,
		BenchUntilHealthy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	row := sliceRow(randRows(1, d, 7), 0)
	l.Server("worker", 0).Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Benched()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica never benched")
		}
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("failover predict: %v", err)
		}
	}
	// Far past FailBackoff, the bench must hold: recovery is health-driven.
	time.Sleep(50 * time.Millisecond)
	if got := r.Benched(); len(got) != 1 || got[0] != addrs[0] {
		t.Fatalf("bench did not hold: %v", got)
	}

	// Bring a fresh server up on the same address and parole the replica.
	srv := cluster.NewServer("worker", 0)
	if _, err := srv.Start(addrs[0]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv.Close()
	svc := NewService(NewRegistry(), BatchOptions{MaxBatch: 8})
	defer svc.Close()
	mv, err := NewLinear("lin", 1, linearWeights(d, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}
	Attach(srv, svc)

	r.Unbench(addrs[0])
	if len(r.Benched()) != 0 {
		t.Fatalf("still benched after Unbench: %v", r.Benched())
	}
	for k := 0; k < 100; k++ {
		if _, err := r.Predict("lin", row, time.Time{}); err != nil {
			t.Fatalf("predict after parole: %v", err)
		}
	}
	if rows := svc.Snapshots()[0].Rows; rows == 0 {
		t.Fatal("paroled replica got no traffic")
	}
}
