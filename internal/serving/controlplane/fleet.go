package controlplane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/rpc"
	"tfhpc/internal/serving"
	"tfhpc/internal/tensor"
)

// ModelSource builds a fresh ModelVersion under the given serving name and
// version. Every backend needs its own instance (a version binds a private
// session), and the same source serves weights under the default name or the
// canary alias — the fleet decides the name, the source the weights.
type ModelSource func(name string, version int) (*serving.ModelVersion, error)

// LinearSource adapts a weight vector into a ModelSource for the servable
// linear model family.
func LinearSource(w *tensor.Tensor) ModelSource {
	return func(name string, version int) (*serving.ModelVersion, error) {
		return serving.NewLinear(name, version, w)
	}
}

// CheckpointSource is a ModelSource that re-reads a SaveLinear checkpoint per
// backend. version <= 0 takes the checkpoint's step.
func CheckpointSource(path string) ModelSource {
	return func(name string, version int) (*serving.ModelVersion, error) {
		return serving.LoadLinear(name, version, path)
	}
}

// CanaryName is the serving alias a model's canary version loads under while
// a rollout is in flight.
func CanaryName(model string) string { return model + "@canary" }

// Backend is one running replica task a fleet manages.
type Backend interface {
	// Addr is the replica's dialable serving address.
	Addr() string
	// Service is the replica's local serving plane (model load/unload).
	Service() *serving.Service
	// Close tears the replica down.
	Close() error
}

// Spawner boots replica backends; the fleet calls it when scaling up or
// replacing a dead member.
type Spawner interface {
	Spawn(id int) (Backend, error)
}

// ClusterSpawner boots in-process cluster tasks: each replica is a
// cluster.Server on a loopback port with the serving endpoints attached —
// the same process shape tfserver uses, so fleet probes are ordinary
// cluster Health RPCs.
type ClusterSpawner struct {
	// Job names the replica tasks (default "replica").
	Job string
	// Batch applies to every replica's micro-batchers.
	Batch serving.BatchOptions
}

func (cs *ClusterSpawner) job() string {
	if cs.Job == "" {
		return "replica"
	}
	return cs.Job
}

// Spawn implements Spawner.
func (cs *ClusterSpawner) Spawn(id int) (Backend, error) {
	srv := cluster.NewServer(cs.job(), id)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := serving.NewService(serving.NewRegistry(), cs.Batch)
	serving.Attach(srv, svc)
	return &clusterBackend{srv: srv, svc: svc, addr: addr}, nil
}

type clusterBackend struct {
	srv  *cluster.Server
	svc  *serving.Service
	addr string
}

func (b *clusterBackend) Addr() string              { return b.addr }
func (b *clusterBackend) Service() *serving.Service { return b.svc }
func (b *clusterBackend) Close() error {
	b.svc.Close()
	return b.srv.Close()
}

// FleetOptions tune the fleet's deploy and retire behavior.
type FleetOptions struct {
	// Warmup applies to every version before it attaches to traffic.
	Warmup WarmupConfig
	// DrainTimeout bounds how long a retiring replica may finish in-flight
	// requests before its connection closes anyway (default 5s).
	DrainTimeout time.Duration
}

// Liveness probes make 2 attempts with a 20ms base backoff (a dead loopback
// task fails fast), each probe bounded end to end by probeTimeout.
var probePolicy = rpc.RetryPolicy{Attempts: 2, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}

const probeTimeout = 2 * time.Second

func (o FleetOptions) withDefaults() FleetOptions {
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// deployment is one arm's recipe: how to build the version any backend —
// present or future — must serve.
type deployment struct {
	source  ModelSource
	version int
}

// Fleet owns the replica set behind a router: it spawns warmed backends,
// retires them through the router's drain, replaces members that fail
// liveness probes, and keeps every backend serving the same model set
// (default arms plus any in-flight canary). All mutations serialize on one
// mutex — the autoscaler and rollout controller share the fleet safely.
type Fleet struct {
	router  *serving.Router
	spawner Spawner
	opts    FleetOptions
	job     string

	mu       sync.Mutex
	backends []Backend
	models   map[string]*deployment // default arm, by model name
	canaries map[string]*deployment // canary arm, by model name
	nextID   int

	spawned, retired, replaced atomic.Int64
	warmNanos                  atomic.Int64
}

// NewFleet builds a fleet over an (initially empty) router.
func NewFleet(router *serving.Router, spawner Spawner, opts FleetOptions) *Fleet {
	job := "replica"
	if cs, ok := spawner.(*ClusterSpawner); ok {
		job = cs.job()
	}
	return &Fleet{
		router:   router,
		spawner:  spawner,
		opts:     opts.withDefaults(),
		job:      job,
		models:   make(map[string]*deployment),
		canaries: make(map[string]*deployment),
	}
}

// Router returns the router the fleet feeds.
func (f *Fleet) Router() *serving.Router { return f.router }

// Size is the current backend count.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.backends)
}

// Addrs lists the backends' serving addresses.
func (f *Fleet) Addrs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.Addr()
	}
	return out
}

// Counters reports lifetime spawn/retire/replace counts.
func (f *Fleet) Counters() (spawned, retired, replaced int64) {
	return f.spawned.Load(), f.retired.Load(), f.replaced.Load()
}

// SetModel installs (or hot-swaps) a model's default arm on every backend.
// Future backends serve it too.
func (f *Fleet) SetModel(model string, version int, src ModelSource) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dep := &deployment{source: src, version: version}
	for _, b := range f.backends {
		if err := f.serveOn(b, model, dep); err != nil {
			return err
		}
	}
	f.models[model] = dep
	return nil
}

// serveOn builds, warms and installs one arm's version on one backend.
// Warmup runs before ServeModel: the version joins the registry — and the
// pick set — only after its cold paths are paid, which is what gates
// readiness on warmup completion.
func (f *Fleet) serveOn(b Backend, name string, dep *deployment) error {
	mv, err := dep.source(name, dep.version)
	if err != nil {
		return fmt.Errorf("controlplane: build %s v%d: %w", name, dep.version, err)
	}
	warm, err := Warm(mv, f.opts.Warmup)
	f.warmNanos.Add(int64(warm))
	if err != nil {
		return err
	}
	_, err = b.Service().ServeModel(mv)
	return err
}

// spawnOneLocked boots one backend, deploys every arm, and routes it.
func (f *Fleet) spawnOneLocked() error {
	id := f.nextID
	f.nextID++
	b, err := f.spawner.Spawn(id)
	if err != nil {
		return err
	}
	for model, dep := range f.models {
		if err := f.serveOn(b, model, dep); err != nil {
			b.Close()
			return err
		}
	}
	// An in-flight canary must exist on every member: its traffic arm picks
	// replicas the same way the default arm does.
	for model, dep := range f.canaries {
		if err := f.serveOn(b, CanaryName(model), dep); err != nil {
			b.Close()
			return err
		}
	}
	if err := f.router.AddReplica(b.Addr()); err != nil {
		b.Close()
		return err
	}
	f.backends = append(f.backends, b)
	f.spawned.Add(1)
	return nil
}

// retireOneLocked drains and closes the newest backend (LIFO: the oldest
// members keep their warmed caches).
func (f *Fleet) retireOneLocked() error {
	if len(f.backends) == 0 {
		return fmt.Errorf("controlplane: no backend to retire")
	}
	b := f.backends[len(f.backends)-1]
	f.backends = f.backends[:len(f.backends)-1]
	if _, err := f.router.RemoveReplica(b.Addr(), f.opts.DrainTimeout); err != nil {
		b.Close()
		return err
	}
	f.retired.Add(1)
	return b.Close()
}

// ScaleTo grows or shrinks the fleet to n backends. Growth attaches fully
// warmed replicas; shrink drains through the router so no in-flight request
// is dropped.
func (f *Fleet) ScaleTo(n int) error {
	if n < 0 {
		return fmt.Errorf("controlplane: negative fleet size %d", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.backends) < n {
		if err := f.spawnOneLocked(); err != nil {
			return err
		}
	}
	for len(f.backends) > n {
		if err := f.retireOneLocked(); err != nil {
			return err
		}
	}
	return nil
}

// DeployCanary loads a model's canary version (under CanaryName) on every
// backend, warmed before attach. The router split is the caller's move —
// deploy and traffic-attach are separate steps.
func (f *Fleet) DeployCanary(model string, version int, src ModelSource) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.models[model]; !ok {
		return fmt.Errorf("controlplane: no default deployment for %s", model)
	}
	dep := &deployment{source: src, version: version}
	for _, b := range f.backends {
		if err := f.serveOn(b, CanaryName(model), dep); err != nil {
			return err
		}
	}
	f.canaries[model] = dep
	return nil
}

// PromoteCanary hot-swaps the canary's weights in as the model's default
// version on every backend (the registry's swap: in-flight requests on the
// old version drain, new requests see the new one). The canary alias keeps
// serving until RemoveCanary — callers clear the split first, wait out
// stragglers, then remove.
func (f *Fleet) PromoteCanary(model string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dep, ok := f.canaries[model]
	if !ok {
		return fmt.Errorf("controlplane: no canary deployed for %s", model)
	}
	for _, b := range f.backends {
		if err := f.serveOn(b, model, dep); err != nil {
			return err
		}
	}
	f.models[model] = dep
	return nil
}

// RemoveCanary unloads a model's canary alias everywhere (after promote or
// rollback). In-flight canary requests drain through the registry's refs.
func (f *Fleet) RemoveCanary(model string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.canaries, model)
	for _, b := range f.backends {
		b.Service().Registry().Unload(CanaryName(model))
	}
}

// peers builds a Peers view of the current membership for Health probing.
func (f *Fleet) peers(addrs []string) *cluster.Peers {
	return cluster.NewPeers(cluster.Spec{f.job: addrs})
}

// probe checks one member's liveness under probePolicy.
func (f *Fleet) probe(p *cluster.Peers, task int) error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	return p.HealthRetry(ctx, f.job, task, probePolicy)
}

// ReapDead probes every member (Peers.HealthRetry: Health RPCs under a
// retry policy, the elastic sgd driver's probe too) and replaces the ones
// that fail — membership shrank underneath us, so re-balance back to the
// size we had.
// Returns how many members were replaced.
func (f *Fleet) ReapDead() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addrs := make([]string, len(f.backends))
	for i, b := range f.backends {
		addrs[i] = b.Addr()
	}
	if len(addrs) == 0 {
		return 0, nil
	}
	p := f.peers(addrs)
	defer p.Close()
	var dead []int
	for i := range addrs {
		if f.probe(p, i) != nil {
			dead = append(dead, i)
		}
	}
	if len(dead) == 0 {
		return 0, nil
	}
	// Remove the casualties (reverse order keeps indices valid), then grow
	// back to the size the fleet had.
	want := len(f.backends)
	for j := len(dead) - 1; j >= 0; j-- {
		i := dead[j]
		b := f.backends[i]
		f.backends = append(f.backends[:i], f.backends[i+1:]...)
		// The backend is dead: a drain would only time out, so remove with
		// no drain budget and close what's left of it.
		f.router.RemoveReplica(b.Addr(), 0)
		b.Close()
	}
	var firstErr error
	for len(f.backends) < want {
		if err := f.spawnOneLocked(); err != nil {
			firstErr = err
			break
		}
		f.replaced.Add(1)
	}
	return len(dead), firstErr
}

// UnbenchRecovered health-probes every benched replica and paroles the ones
// answering again — the un-bench path the router itself doesn't have: the
// bench is failure-driven, recovery is health-driven (Peers.HealthRetry).
// Returns the recovered addresses.
func (f *Fleet) UnbenchRecovered() []string {
	benched := f.router.Benched()
	if len(benched) == 0 {
		return nil
	}
	f.mu.Lock()
	member := make(map[string]bool, len(f.backends))
	for _, b := range f.backends {
		member[b.Addr()] = true
	}
	f.mu.Unlock()
	var probeList []string
	for _, a := range benched {
		if member[a] {
			probeList = append(probeList, a)
		}
	}
	if len(probeList) == 0 {
		return nil
	}
	p := f.peers(probeList)
	defer p.Close()
	var recovered []string
	for i, a := range probeList {
		if f.probe(p, i) == nil {
			f.router.Unbench(a)
			recovered = append(recovered, a)
		}
	}
	return recovered
}

// Close retires every backend (with drain) and releases the router.
func (f *Fleet) Close() {
	f.mu.Lock()
	backends := f.backends
	f.backends = nil
	f.mu.Unlock()
	for _, b := range backends {
		f.router.RemoveReplica(b.Addr(), f.opts.DrainTimeout)
		b.Close()
	}
}
