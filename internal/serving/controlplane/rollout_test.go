package controlplane

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/serving"
	"tfhpc/internal/simnet"
	"tfhpc/internal/tensor"
)

// faultCtl is the shared fault seam: the CtlFaultGate op consults it on
// every execution. Tests arm it with a simnet.FaultPlan mid-step, turning
// the canary bad exactly the way a real regression would — inside the
// serving path, visible only through the SLO window.
var faultCtl struct {
	mu    sync.Mutex
	plan  simnet.FaultPlan
	calls int
}

func setFaultPlan(p simnet.FaultPlan) {
	faultCtl.mu.Lock()
	faultCtl.plan = p
	faultCtl.calls = 0
	faultCtl.mu.Unlock()
}

func init() {
	faultCtl.plan = simnet.NewFaultPlan()
	// The gate passes its input through untouched; the fault plan decides
	// per-call latency (LinkDelay/SlowBy) and failure (DropRank 0 drops
	// every call past DropAfterSends). Stateful: never pruned or cached.
	ops.Register(&ops.OpDef{Name: "CtlFaultGate", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Kernel: func(ctx *ops.Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
			faultCtl.mu.Lock()
			faultCtl.calls++
			p, n := faultCtl.plan, faultCtl.calls
			faultCtl.mu.Unlock()
			if d := p.SendDelay(0); d > 0 {
				time.Sleep(d)
			}
			if p.ShouldDrop(0, n) {
				return nil, fmt.Errorf("ctlfault: injected failure (call %d)", n)
			}
			return in[0], nil
		}})
}

// faultySource builds a linear model with the fault gate spliced between
// input and MatVec — numerically identical to LinearSource until a plan is
// armed.
func faultySource(w *tensor.Tensor) ModelSource {
	return func(name string, version int) (*serving.ModelVersion, error) {
		g := graph.New()
		in := g.Placeholder("input", w.DType(), nil)
		gate := g.AddNamedOp("gate", "CtlFaultGate", nil, in)
		wv := g.AddNamedOp("w", "Variable", graph.Attrs{"var_name": "w"})
		g.AddNamedOp("output", "MatVec", nil, gate, wv)
		sig := serving.Signature{InputName: "input", OutputName: "output",
			Features: w.Shape()[0], DType: w.DType()}
		return serving.NewModelVersion(name, version, g, sig, map[string]*tensor.Tensor{"w": w})
	}
}

// loadDriver drives a closed-loop request stream at the control plane's
// router, with exact accounting: every request sent gets exactly one
// outcome, counted once.
type loadDriver struct {
	stop   atomic.Bool
	sent   atomic.Int64
	ok     atomic.Int64
	failed atomic.Int64
	wg     sync.WaitGroup
}

func startLoad(cp *ControlPlane, workers, features int) *loadDriver {
	ld := &loadDriver{}
	row := testBatch(1, features)
	for i := 0; i < workers; i++ {
		ld.wg.Add(1)
		go func() {
			defer ld.wg.Done()
			for !ld.stop.Load() {
				ld.sent.Add(1)
				if _, err := cp.Router().Predict("m", row, time.Now().Add(3*time.Second)); err != nil {
					ld.failed.Add(1)
				} else {
					ld.ok.Add(1)
				}
			}
		}()
	}
	return ld
}

func (ld *loadDriver) halt() (sent, ok, failed int64) {
	ld.stop.Store(true)
	ld.wg.Wait()
	return ld.sent.Load(), ld.ok.Load(), ld.failed.Load()
}

func testControlPlane(t *testing.T, replicas int) *ControlPlane {
	t.Helper()
	cp, err := New(Config{
		Batch:  serving.BatchOptions{},
		Warmup: WarmupConfig{Rounds: 1, MaxBatch: 4},
		Autoscaler: AutoscalerConfig{
			Min: replicas, Max: replicas, Tick: 50 * time.Millisecond,
		},
		Window:       10 * time.Second,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Fleet().SetModel("m", 1, LinearSource(testWeights(16, 1))); err != nil {
		t.Fatal(err)
	}
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	return cp
}

func awaitRollout(t *testing.T, ro *Rollout, timeout time.Duration) string {
	t.Helper()
	select {
	case <-ro.Done():
	case <-time.After(timeout):
		t.Fatalf("rollout stuck in state %q", ro.Status().State)
	}
	state, _ := ro.Terminal()
	return state
}

// A healthy canary walks every step and promotes: the default arm ends up
// serving the canary's version via the registry hot-swap, the split clears,
// the alias unloads — all with zero failed requests.
func TestRolloutPromotesHealthyCanary(t *testing.T) {
	setFaultPlan(simnet.NewFaultPlan())
	cp := testControlPlane(t, 2)
	ld := startLoad(cp, 6, 16)

	ro, err := cp.StartRollout("m", 2, LinearSource(testWeights(16, 2)), RolloutConfig{
		Steps: []int{25, 100}, Hold: 250 * time.Millisecond, MinSamples: 10,
		MaxP99: 5 * time.Second, MaxErrorRate: 0.5,
		RemoveGrace: 100 * time.Millisecond, Poll: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if state := awaitRollout(t, ro, 30*time.Second); state != StatePromoted {
		t.Fatalf("state=%q reason=%q, want promoted", state, ro.Status().Reason)
	}
	sent, ok, failed := ld.halt()

	if failed != 0 {
		t.Fatalf("%d/%d requests failed during a healthy rollout", failed, sent)
	}
	if sent != ok {
		t.Fatalf("accounting: sent=%d ok=%d", sent, ok)
	}
	total, defOK, canOK, errs := cp.Monitor().Totals()
	if total != sent || defOK+canOK+errs != total {
		t.Fatalf("monitor ledger: total=%d (sent %d) defOK=%d canOK=%d errs=%d",
			total, sent, defOK, canOK, errs)
	}
	if canOK == 0 {
		t.Fatal("no request ever reached the canary arm")
	}
	if _, _, live := cp.Router().SplitOf("m"); live {
		t.Fatal("split survived promotion")
	}
	for _, ms := range cp.Router().Models() {
		if ms.Name == "m" && ms.Version != 2 {
			t.Fatalf("default arm still v%d after promote", ms.Version)
		}
		if ms.Name == CanaryName("m") {
			t.Fatal("canary alias survived promotion")
		}
	}
}

// rollbackInvariants asserts what auto-rollback must restore, for either
// breach flavor: terminal rolled-back state, no split, canary alias gone,
// default arm at v1, and — after the rollback — 100% default traffic that
// all succeeds. The ledger must balance exactly: no request lost, none
// double-counted.
func rollbackInvariants(t *testing.T, cp *ControlPlane, ld *loadDriver, wantReason string) {
	t.Helper()
	ro := cp.Rollout()
	if state, _ := ro.Terminal(); state != StateRolledBack {
		t.Fatalf("state=%q, want rolled-back", state)
	}
	if reason := ro.Status().Reason; !strings.Contains(reason, wantReason) {
		t.Fatalf("rollback reason %q does not mention %q", reason, wantReason)
	}
	if _, _, live := cp.Router().SplitOf("m"); live {
		t.Fatal("split survived rollback")
	}

	// Post-rollback traffic: all default, all successful.
	_, _, canBefore, _ := cp.Monitor().Totals()
	row := testBatch(1, 16)
	for i := 0; i < 50; i++ {
		if _, err := cp.Router().Predict("m", row, time.Now().Add(2*time.Second)); err != nil {
			t.Fatalf("post-rollback predict %d failed: %v", i, err)
		}
	}
	_, _, canAfter, _ := cp.Monitor().Totals()
	if canAfter != canBefore {
		t.Fatalf("canary arm still taking traffic after rollback: %d → %d", canBefore, canAfter)
	}

	sent, ok, failed := ld.halt()
	if ok+failed != sent {
		t.Fatalf("accounting: sent=%d but ok+failed=%d — a request was lost or double-counted", sent, ok+failed)
	}
	total, defOK, canOK, errs := cp.Monitor().Totals()
	// The monitor saw the driver's requests plus the 50 probes above.
	if total != sent+50 || defOK+canOK+errs != total {
		t.Fatalf("monitor ledger off: total=%d sent=%d defOK=%d canOK=%d errs=%d",
			total, sent, defOK, canOK, errs)
	}
	for _, ms := range cp.Router().Models() {
		if ms.Name == "m" && ms.Version != 1 {
			t.Fatalf("default arm at v%d after rollback, want 1", ms.Version)
		}
		if ms.Name == CanaryName("m") {
			t.Fatal("canary alias survived rollback")
		}
	}
}

// awaitHolding waits until the rollout is measuring a step — the moment to
// arm the fault plan so the breach lands mid-step.
func awaitHolding(t *testing.T, ro *Rollout) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ro.Status()
		if st.State == StateHolding {
			return
		}
		if _, terminal := ro.Terminal(); terminal || time.Now().After(deadline) {
			t.Fatalf("rollout never reached holding: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Latency fault injected mid-step: the canary's p99 breaches the ceiling
// and the controller auto-rolls back to 100% default traffic.
func TestRolloutRollsBackOnLatencyBreach(t *testing.T) {
	setFaultPlan(simnet.NewFaultPlan())
	t.Cleanup(func() { setFaultPlan(simnet.NewFaultPlan()) })
	cp := testControlPlane(t, 2)
	ld := startLoad(cp, 6, 16)

	ro, err := cp.StartRollout("m", 2, faultySource(testWeights(16, 2)), RolloutConfig{
		Steps: []int{40}, Hold: 400 * time.Millisecond, MinSamples: 8,
		MaxP99: 60 * time.Millisecond, MaxErrorRate: 0.99,
		// The grace must outlast the slowest request the split already sent
		// to the canary: with both of its runners inside a 150ms run, a
		// queued row waits one run out and then pays its own.
		RemoveGrace: 400 * time.Millisecond, Poll: 20 * time.Millisecond,
		SampleGrace: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitHolding(t, ro)
	// Mid-step: every canary call now pays 150ms — the SLO window must
	// notice and the controller must pull the plug on its own.
	plan := simnet.NewFaultPlan()
	plan.LinkDelay = 150 * time.Millisecond
	setFaultPlan(plan)

	if state := awaitRollout(t, ro, 30*time.Second); state != StateRolledBack {
		t.Fatalf("state=%q, want rolled-back", state)
	}
	setFaultPlan(simnet.NewFaultPlan())
	rollbackInvariants(t, cp, ld, "p99")
}

// Error fault injected mid-step: canary requests start failing, the error
// rate breaches, and rollback restores an all-default, all-success fleet.
func TestRolloutRollsBackOnErrorBreach(t *testing.T) {
	setFaultPlan(simnet.NewFaultPlan())
	t.Cleanup(func() { setFaultPlan(simnet.NewFaultPlan()) })
	cp := testControlPlane(t, 2)
	ld := startLoad(cp, 6, 16)

	ro, err := cp.StartRollout("m", 2, faultySource(testWeights(16, 2)), RolloutConfig{
		Steps: []int{40}, Hold: 400 * time.Millisecond, MinSamples: 8,
		MaxP99: 10 * time.Second, MaxErrorRate: 0.1,
		RemoveGrace: 150 * time.Millisecond, Poll: 20 * time.Millisecond,
		SampleGrace: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitHolding(t, ro)
	// Mid-step: the canary dies after 2 more calls — every call past that
	// errors, exactly like a bad weight file would.
	plan := simnet.NewFaultPlan()
	plan.DropRank = 0
	plan.DropAfterSends = 2
	setFaultPlan(plan)

	if state := awaitRollout(t, ro, 30*time.Second); state != StateRolledBack {
		t.Fatalf("state=%q, want rolled-back", state)
	}
	setFaultPlan(simnet.NewFaultPlan())

	if _, _, _, errs := cp.Monitor().Totals(); errs == 0 {
		t.Fatal("error breach test observed no errors")
	}
	rollbackInvariants(t, cp, ld, "error rate")
}

// A second rollout while one is live must be refused; after the first one
// finishes, a new one may start.
func TestRolloutOneAtATime(t *testing.T) {
	setFaultPlan(simnet.NewFaultPlan())
	cp := testControlPlane(t, 1)
	ld := startLoad(cp, 4, 16)

	cfg := RolloutConfig{
		Steps: []int{100}, Hold: 200 * time.Millisecond, MinSamples: 5,
		MaxP99: 5 * time.Second, MaxErrorRate: 0.5,
		RemoveGrace: 50 * time.Millisecond, Poll: 20 * time.Millisecond,
	}
	ro, err := cp.StartRollout("m", 2, LinearSource(testWeights(16, 2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.StartRollout("m", 3, LinearSource(testWeights(16, 3)), cfg); err == nil {
		t.Fatal("second concurrent rollout was accepted")
	}
	if state := awaitRollout(t, ro, 30*time.Second); state != StatePromoted {
		t.Fatalf("state=%q, want promoted", state)
	}
	ld.halt()
	ro2, err := cp.StartRollout("m", 3, LinearSource(testWeights(16, 3)), cfg)
	if err != nil {
		t.Fatalf("rollout after terminal state refused: %v", err)
	}
	// No traffic: the starving canary must roll back, not promote.
	if state := awaitRollout(t, ro2, 30*time.Second); state != StateRolledBack {
		t.Fatalf("starved rollout state=%q, want rolled-back", state)
	}
	if reason := ro2.Status().Reason; !strings.Contains(reason, "starved") {
		t.Fatalf("starved rollout reason %q", reason)
	}
}
