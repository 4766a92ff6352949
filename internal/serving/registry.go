package serving

import (
	"sort"
	"sync"
)

// Registry is the versioned model store: one active ModelVersion per model
// name, hot-swappable under traffic. Serving a new version atomically
// redirects new acquires to it and starts draining the old one; acquired
// refs pin their version until released, so a swap never tears weights out
// from under an in-flight batch and never drops queued requests.
type Registry struct {
	mu     sync.RWMutex
	active map[string]*ModelVersion
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{active: make(map[string]*ModelVersion)}
}

// Serve installs mv as its model's active version and returns the replaced
// version (nil on first load). The old version drains in the background:
// it stops taking new acquires immediately, and its Drained channel fires
// once in-flight work ends.
func (r *Registry) Serve(mv *ModelVersion) *ModelVersion {
	r.mu.Lock()
	old := r.active[mv.model]
	r.active[mv.model] = mv
	r.mu.Unlock()
	if old != nil {
		old.startDrain()
	}
	return old
}

// Unload retires a model: no new acquires; returns the retired version
// (nil if the model was unknown) so callers can await Drained.
func (r *Registry) Unload(model string) *ModelVersion {
	r.mu.Lock()
	old := r.active[model]
	delete(r.active, model)
	r.mu.Unlock()
	if old != nil {
		old.startDrain()
	}
	return old
}

// Active returns the current version without acquiring it (signature
// inspection, status pages). It may start draining at any moment; a
// prediction pins its version with acquireRef.
func (r *Registry) Active(model string) *ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.active[model]
}

// acquireRef pins the model's active version for one batch or row; the
// caller must call mv.release() exactly once. A concurrent swap can retire
// the version between lookup and pin, so the lookup retries onto the fresh
// active version (bounded: each retry means another swap won the race).
func (r *Registry) acquireRef(model string) (*ModelVersion, error) {
	for attempt := 0; attempt < 8; attempt++ {
		r.mu.RLock()
		mv := r.active[model]
		r.mu.RUnlock()
		if mv == nil {
			return nil, ErrNotFound
		}
		if mv.acquire() {
			return mv, nil
		}
	}
	return nil, ErrNotFound
}

// Models lists every model's active version status, sorted by name.
func (r *Registry) Models() []ModelStatus {
	r.mu.RLock()
	out := make([]ModelStatus, 0, len(r.active))
	for name, mv := range r.active {
		out = append(out, ModelStatus{
			Name:    name,
			Version: mv.version,
			State:   mv.State(),
			Ready:   true,
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready reports whether at least one model is being served.
func (r *Registry) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.active) > 0
}
