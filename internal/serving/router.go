package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// RouterOptions tune replica selection and failover.
type RouterOptions struct {
	// DefaultDeadline applies to requests carrying none (default 1s).
	DefaultDeadline time.Duration
	// FailBackoff is how long a replica sits out after a transport failure
	// before being offered traffic again (default 500ms).
	FailBackoff time.Duration
	// BenchUntilHealthy pins a failed replica on the bench indefinitely
	// instead of for FailBackoff: it rejoins the pick set only when a
	// health probe calls Unbench. This is the mode a control plane wants —
	// time-based parole trusts the clock, health-driven parole trusts the
	// replica — and it is what makes the router's replica view reliable
	// enough for an autoscaler to act on.
	BenchUntilHealthy bool
	// Observer, when set, is called exactly once per Predict with the
	// requested model (before any canary rewrite), whether the request was
	// routed to the canary arm, the end-to-end latency, and the outcome.
	// The control plane's SLO windows hang off this hook.
	Observer func(model string, canary bool, latency time.Duration, err error)
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Second
	}
	if o.FailBackoff <= 0 {
		o.FailBackoff = 500 * time.Millisecond
	}
	return o
}

// streamsPerReplica caps the pooled predict streams kept per replica; bursts
// beyond it open short-lived extra streams.
const streamsPerReplica = 8

// benchForever is the failUntil sentinel for health-driven benching: far
// enough out that only an explicit Unbench restores the replica.
const benchForever = math.MaxInt64

// replica is one serving endpoint with its live load and health view.
type replica struct {
	addr        string
	client      *rpc.Client
	outstanding atomic.Int64
	failUntil   atomic.Int64 // unixnano; 0 = healthy, benchForever = until Unbench
	draining    atomic.Bool  // excluded from picks; RemoveReplica is waiting it out

	// streams pools idle predict streams.
	streams chan *PredictStream
}

// getStream reuses a pooled predict stream or opens a new one.
func (rep *replica) getStream() (*PredictStream, error) {
	select {
	case ps := <-rep.streams:
		return ps, nil
	default:
		return OpenPredictStream(rep.client)
	}
}

// putStream returns a healthy stream to the pool; broken or surplus ones
// close.
func (rep *replica) putStream(ps *PredictStream) {
	if ps.Broken() {
		ps.Close()
		return
	}
	select {
	case rep.streams <- ps:
	default:
		ps.Close()
	}
}

// predict sends one request to the replica over a pooled predict stream.
func (rep *replica) predict(tsc telemetry.SpanContext, model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	ps, err := rep.getStream()
	if err != nil {
		return nil, err
	}
	out, err := ps.PredictTraced(tsc, model, in, deadline)
	rep.putStream(ps)
	return out, err
}

// track moves the replica's outstanding count and the router-wide gauge.
func (rep *replica) track(delta int64) {
	rep.outstanding.Add(delta)
	mRouterOutstanding.Add(delta)
}

func (r *replica) healthyAt(now time.Time) bool {
	return r.failUntil.Load() <= now.UnixNano()
}

// close releases the replica's pooled streams and connection.
func (r *replica) close() {
	for {
		select {
		case ps := <-r.streams:
			ps.Close()
			continue
		default:
		}
		break
	}
	r.client.Close()
}

// split is one model's weighted canary traffic-split. The arm decision is a
// deterministic stride over a request counter, not a coin flip: out of every
// 100 requests, exactly `percent` go to the canary — so a rollout
// controller's SLO window measures the percentage it set, not a sample of it.
type split struct {
	target  string // canary model name requests are rewritten to
	percent atomic.Int64
	count   atomic.Uint64
}

// take decides one request's arm.
func (s *split) take() bool {
	pct := s.percent.Load()
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	n := s.count.Add(1) - 1
	return int64(n%100) < pct
}

// Router spreads predict traffic across model replicas hosted on cluster
// worker tasks: least-outstanding pick, transport failures bench the
// replica and the request retries on the next-best one. The replica set is
// dynamic — a control plane adds warmed replicas and drains retiring ones
// under live traffic — and each model may carry a weighted canary
// traffic-split. The router itself implements Predictor, so it sits behind
// the same HTTP/binary front-ends as a local Service — a serving tree.
type Router struct {
	opts RouterOptions

	mu       sync.RWMutex
	replicas []*replica
	splits   map[string]*split

	routed    atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64
	unbenches atomic.Int64
}

// NewRouter builds a router over replica addresses (each a tfserve/cluster
// task hosting the binary serving endpoint). An empty address list is
// allowed: a control-plane router starts empty and adds replicas as the
// fleet spawns them.
func NewRouter(addrs []string, opts RouterOptions) (*Router, error) {
	r := &Router{opts: opts.withDefaults(), splits: make(map[string]*split)}
	for _, a := range addrs {
		if err := r.AddReplica(a); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// AddReplica dials addr and adds it to the pick set. Adding an address that
// is already a member is an error — the caller's replica bookkeeping is
// confused and traffic-doubling onto one backend would hide it.
func (r *Router) AddReplica(addr string) error {
	if addr == "" {
		return fmt.Errorf("serving: empty replica address")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range r.replicas {
		if rep.addr == addr {
			return fmt.Errorf("serving: replica %s already routed", addr)
		}
	}
	// Copy-on-write: snapshot() hands the current slice to lock-free
	// readers, so membership changes must never mutate its backing array.
	next := make([]*replica, len(r.replicas), len(r.replicas)+1)
	copy(next, r.replicas)
	r.replicas = append(next, &replica{
		addr:    addr,
		client:  rpc.Dial(addr),
		streams: make(chan *PredictStream, streamsPerReplica),
	})
	mRouterReplicas.Set(int64(len(r.replicas)))
	return nil
}

// RemoveReplica retires addr without dropping traffic: the replica is
// excluded from new picks immediately, then removal waits (up to drain) for
// its outstanding requests to finish before the connection closes. An
// expired drain still removes the replica — the remaining in-flight
// requests fail over like any transport loss. Returns whether the drain
// completed cleanly.
func (r *Router) RemoveReplica(addr string, drain time.Duration) (bool, error) {
	r.mu.Lock()
	var rep *replica
	for _, cand := range r.replicas {
		if cand.addr == addr {
			rep = cand
			break
		}
	}
	if rep == nil {
		r.mu.Unlock()
		return false, fmt.Errorf("serving: replica %s not routed", addr)
	}
	rep.draining.Store(true)
	r.mu.Unlock()

	deadline := time.Now().Add(drain)
	clean := true
	for rep.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			clean = false
			break
		}
		time.Sleep(time.Millisecond)
	}

	r.mu.Lock()
	// Membership may have shifted while draining; re-find by identity, and
	// rebuild the slice copy-on-write — readers hold the old one.
	next := make([]*replica, 0, len(r.replicas)-1)
	for _, cand := range r.replicas {
		if cand != rep {
			next = append(next, cand)
		}
	}
	r.replicas = next
	mRouterReplicas.Set(int64(len(next)))
	r.mu.Unlock()
	rep.close()
	return clean, nil
}

// ReplicaAddrs lists the current members (including draining and benched
// ones), in pick order.
func (r *Router) ReplicaAddrs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.replicas))
	for i, rep := range r.replicas {
		out[i] = rep.addr
	}
	return out
}

// NumReplicas returns the current member count.
func (r *Router) NumReplicas() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.replicas)
}

// Outstanding sums the in-flight requests across all replicas — the load
// signal an autoscaler divides by the replica count.
func (r *Router) Outstanding() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum int64
	for _, rep := range r.replicas {
		sum += rep.outstanding.Load()
	}
	return sum
}

// Benched lists replicas currently excluded from picks by a failure bench.
func (r *Router) Benched() []string {
	now := time.Now()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, rep := range r.replicas {
		if !rep.healthyAt(now) {
			out = append(out, rep.addr)
		}
	}
	return out
}

// Unbench returns a benched replica to the pick set — the health-probe
// driven recovery path: a replica that answers Health again serves again,
// whatever FailBackoff thinks. Unknown or already-healthy addresses no-op.
func (r *Router) Unbench(addr string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rep := range r.replicas {
		if rep.addr == addr && rep.failUntil.Load() > time.Now().UnixNano() {
			rep.failUntil.Store(0)
			r.unbenches.Add(1)
			mUnbenches.Inc()
		}
	}
}

// bench sidelines a replica after a transport failure: until a health probe
// clears it (BenchUntilHealthy) or for FailBackoff.
func (r *Router) bench(rep *replica) {
	mBenchEvents.Inc()
	if r.opts.BenchUntilHealthy {
		rep.failUntil.Store(benchForever)
		return
	}
	rep.failUntil.Store(time.Now().Add(r.opts.FailBackoff).UnixNano())
}

// SetSplit routes percent% of predict requests for model onto canaryModel
// instead (0..100, deterministic stride). Setting percent on an existing
// split adjusts it in place; the split stays until ClearSplit.
func (r *Router) SetSplit(model, canaryModel string, percent int) error {
	if model == "" || canaryModel == "" || model == canaryModel {
		return fmt.Errorf("serving: split needs distinct model and canary names")
	}
	if percent < 0 || percent > 100 {
		return fmt.Errorf("serving: split percent %d out of [0,100]", percent)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.splits[model]
	if sp == nil || sp.target != canaryModel {
		sp = &split{target: canaryModel}
		r.splits[model] = sp
	}
	sp.percent.Store(int64(percent))
	return nil
}

// ClearSplit removes model's traffic-split: 100% of requests route to the
// default arm again, immediately.
func (r *Router) ClearSplit(model string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.splits, model)
}

// SplitOf reports model's current split (canary name and percent).
func (r *Router) SplitOf(model string) (canaryModel string, percent int, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sp := r.splits[model]
	if sp == nil {
		return "", 0, false
	}
	return sp.target, int(sp.percent.Load()), true
}

func (r *Router) splitFor(model string) *split {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.splits[model]
}

// Close releases every replica connection and its pooled streams.
func (r *Router) Close() {
	r.mu.Lock()
	reps := r.replicas
	r.replicas = nil
	mRouterReplicas.Set(0)
	r.mu.Unlock()
	for _, rep := range reps {
		rep.close()
	}
}

// snapshot returns the current membership slice (shared, read-only).
func (r *Router) snapshot() []*replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replicas
}

// pick returns the untried, non-draining replica with the least outstanding
// work, preferring healthy ones; with every candidate benched it falls back
// to the least-loaded benched one (the bench is advisory, not a death
// sentence — a fleet-wide bench must not black-hole traffic).
func (r *Router) pick(reps []*replica, tried map[*replica]bool) *replica {
	now := time.Now()
	var best, bestBenched *replica
	for _, rep := range reps {
		if tried[rep] || rep.draining.Load() {
			continue
		}
		if rep.healthyAt(now) {
			if best == nil || rep.outstanding.Load() < best.outstanding.Load() {
				best = rep
			}
		} else if bestBenched == nil || rep.outstanding.Load() < bestBenched.outstanding.Load() {
			bestBenched = rep
		}
	}
	if best != nil {
		return best
	}
	return bestBenched
}

// arm resolves model's traffic-split arm: the name to route, and whether it
// is the canary.
func (r *Router) arm(model string) (string, bool) {
	if sp := r.splitFor(model); sp != nil && sp.take() {
		return sp.target, true
	}
	return model, false
}

// attempt is the failover loop predict and generate share. It picks the
// least-loaded untried replica (each one present at pick time at most once),
// takes an outstanding slot on it and calls try there; a transport failure
// benches the replica and moves on while the deadline allows, any other
// outcome ends the loop. On success the chosen replica comes back still
// holding its slot: the caller releases it (track(-1)) when the request is
// done.
func (r *Router) attempt(span *telemetry.Span, deadline time.Time, try func(rep *replica) error) (*replica, error) {
	reps := r.snapshot()
	tried := make(map[*replica]bool, len(reps))
	var lastErr error
	for attempt := range reps {
		rep := r.pick(reps, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		if attempt > 0 {
			r.retries.Add(1)
			mRetries.Inc()
		}
		rep.track(1)
		err := try(rep)
		if err == nil {
			r.routed.Add(1)
			mRouted.Inc()
			return rep, nil
		}
		rep.track(-1)
		lastErr = err
		if !isTransportErr(err) {
			return nil, err // deterministic application outcome: no failover
		}
		r.failovers.Add(1)
		mFailovers.Inc()
		r.bench(rep)
		span.Arg("benched", rep.addr)
		if !time.Now().Before(deadline) {
			// The budget is spent: failover cannot help.
			return nil, fmt.Errorf("%w: %v", ErrDeadline, err)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serving: no replica available")
	}
	return nil, fmt.Errorf("serving: all replicas failed: %w", lastErr)
}

// withDefault applies DefaultDeadline to a request carrying none.
func (r *Router) withDefault(deadline time.Time) time.Time {
	if deadline.IsZero() {
		return time.Now().Add(r.opts.DefaultDeadline)
	}
	return deadline
}

// Predict implements Predictor: resolve the model's traffic-split arm,
// route, and on transport failure bench the replica and retry the request
// on another one while deadline budget remains.
func (r *Router) Predict(model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	name, canary := r.arm(model)
	start := time.Now()
	out, err := r.route(name, in, r.withDefault(deadline))
	if r.opts.Observer != nil {
		r.opts.Observer(model, canary, time.Since(start), err)
	}
	return out, err
}

func (r *Router) route(model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	// The Predictor interface carries no context, so a routed predict is a
	// trace root: every hop below (pick, stream send, remote serve span)
	// hangs off this span via the ids on the wire.
	span := telemetry.StartRoot("router_predict").Arg("model", model)
	defer span.End()
	var out *tensor.Tensor
	rep, err := r.attempt(span, deadline, func(rep *replica) (err error) {
		attemptSpan := span.Child("router_attempt").Arg("replica", rep.addr)
		out, err = rep.predict(attemptSpan.Context(), model, in, deadline)
		attemptSpan.End()
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.track(-1)
	return out, nil
}

// Models implements Predictor by asking the first answering replica — the
// fleet serves one model set, any healthy member can describe it.
func (r *Router) Models() []ModelStatus {
	reps := r.snapshot()
	tried := make(map[*replica]bool, len(reps))
	for range reps {
		rep := r.pick(reps, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := rep.client.CallContext(ctx, "ServingModels", nil)
		cancel()
		if err != nil {
			r.bench(rep)
			continue
		}
		var ms []ModelStatus
		if json.Unmarshal(resp, &ms) == nil {
			return ms
		}
	}
	return nil
}

// Ready implements Predictor: some replica is answering with models.
func (r *Router) Ready() bool { return len(r.Models()) > 0 }

// RouterStats is the router's own traffic view.
type RouterStats struct {
	Routed    int64 `json:"routed"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Unbenches int64 `json:"unbenches"`
	// Outstanding/Benched/ReplicaAddrs summarize the live replica view so a
	// /statsz scrape in -route mode sees the routing state without walking
	// the per-replica entries (which may be missing when replicas are
	// unreachable).
	Outstanding  int64          `json:"outstanding"`
	Benched      []string       `json:"benched,omitempty"`
	ReplicaAddrs []string       `json:"replica_addrs"`
	Splits       []SplitStatus  `json:"splits,omitempty"`
	Replicas     []ReplicaStats `json:"replicas"`
}

// SplitStatus is one model's live traffic-split.
type SplitStatus struct {
	Model   string `json:"model"`
	Canary  string `json:"canary"`
	Percent int    `json:"percent"`
}

// ReplicaStats is one replica's instantaneous router-side state.
type ReplicaStats struct {
	Addr        string `json:"addr"`
	Outstanding int64  `json:"outstanding"`
	Healthy     bool   `json:"healthy"`
	Draining    bool   `json:"draining,omitempty"`
	// Stats is the replica's own /statsz payload, when reachable.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// StatsJSON implements Predictor: the router's routing counters plus each
// reachable replica's own serving stats.
func (r *Router) StatsJSON() ([]byte, error) {
	now := time.Now()
	st := RouterStats{
		Routed:       r.routed.Load(),
		Retries:      r.retries.Load(),
		Failovers:    r.failovers.Load(),
		Unbenches:    r.unbenches.Load(),
		Outstanding:  r.Outstanding(),
		Benched:      r.Benched(),
		ReplicaAddrs: r.ReplicaAddrs(),
	}
	r.mu.RLock()
	reps := r.replicas
	for model, sp := range r.splits {
		st.Splits = append(st.Splits, SplitStatus{
			Model: model, Canary: sp.target, Percent: int(sp.percent.Load()),
		})
	}
	r.mu.RUnlock()
	for _, rep := range reps {
		rs := ReplicaStats{
			Addr:        rep.addr,
			Outstanding: rep.outstanding.Load(),
			Healthy:     rep.healthyAt(now),
			Draining:    rep.draining.Load(),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if resp, err := rep.client.CallContext(ctx, "ServingStats", nil); err == nil && json.Valid(resp) {
			rs.Stats = resp
		}
		cancel()
		st.Replicas = append(st.Replicas, rs)
	}
	return json.Marshal(map[string]any{"router": st})
}
