package serving

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tfhpc/internal/serving/generate"
	"tfhpc/internal/tensor"
)

// Predictor is the front-end contract: the HTTP and binary endpoints serve
// whatever implements it — a local Service or a Router fanning out to
// remote replicas, interchangeably.
type Predictor interface {
	// Predict serves a [features] row or [n, features] batch; a zero
	// deadline applies the implementation's default. It returns only once
	// nothing else holds in, and the result belongs to the caller, which
	// may Recycle both.
	Predict(model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error)
	// Generate admits one generation request and returns its token stream.
	// The request deadline bounds time-to-first-token; errors are the
	// canonical serving set, as for Predict.
	Generate(model string, req generate.Request) (generate.Stream, error)
	// Models lists the served models for the status/readiness endpoints.
	Models() []ModelStatus
	// Ready reports whether prediction traffic can be admitted.
	Ready() bool
	// StatsJSON renders the stats endpoint payload.
	StatsJSON() ([]byte, error)
}

// Service is the local serving plane: a registry of hot-swappable model
// versions with one micro-batcher per model in front. It implements
// Predictor for the front-ends.
type Service struct {
	reg  *Registry
	opts BatchOptions

	mu       sync.Mutex
	batchers map[string]*Batcher
	gens     map[string]*genEntry
	closed   bool
}

// NewService wraps a registry; opts apply to every model's batcher.
func NewService(reg *Registry, opts BatchOptions) *Service {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Service{reg: reg, opts: opts, batchers: make(map[string]*Batcher)}
}

// Registry exposes the underlying version store.
func (s *Service) Registry() *Registry { return s.reg }

// ServeModel installs (or hot-swaps in) a model version and ensures its
// batcher is running. It returns the replaced version, already draining —
// await its Drained channel to observe retirement.
func (s *Service) ServeModel(mv *ModelVersion) (*ModelVersion, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	b, ok := s.batchers[mv.Model()]
	if !ok {
		b = NewBatcher(s.reg, mv.Model(), s.opts)
		s.batchers[mv.Model()] = b
	}
	s.mu.Unlock()
	old := s.reg.Serve(mv)
	if old != nil {
		b.Stats().swaps.Add(1)
	}
	return old, nil
}

// batcher resolves a model's batcher.
func (s *Service) batcher(model string) (*Batcher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	b, ok := s.batchers[model]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// Predict serves a single row ([features]) or a pre-batched request
// ([n, features]). Every row goes through the micro-batcher, so rows from
// one multi-row request coalesce with concurrent traffic exactly like
// single-row requests do — and answers are bitwise independent of the
// coalescing, so this changes throughput, never results.
func (s *Service) Predict(model string, in *tensor.Tensor, deadline time.Time) (*tensor.Tensor, error) {
	b, err := s.batcher(model)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("%w: nil input", ErrBadInput)
	}
	// Validate dtype before any row slicing: request tensors arrive from
	// the wire, and rowView on a non-float tensor would panic.
	if !in.DType().IsFloat() {
		return nil, fmt.Errorf("%w: want a float tensor, got %v", ErrBadInput, in.DType())
	}
	switch in.Rank() {
	case 1:
		return b.Predict(in, deadline)
	case 2:
		if in.Shape()[0] == 0 {
			return nil, fmt.Errorf("%w: empty batch", ErrBadInput)
		}
		// One admission for the n rows, as views: they keep their order in
		// the queue and coalesce with concurrent traffic like single rows.
		c := newCall(in.Shape()[0])
		defer c.recycle()
		for i := range c.reqs {
			c.reqs[i].row = rowView(in, i)
		}
		b.serve(c, deadline)
		for i := range c.reqs {
			if err := c.reqs[i].err; err != nil {
				return nil, err
			}
		}
		return stackOutputs(c.reqs), nil
	default:
		return nil, fmt.Errorf("%w: want rank-1 row or rank-2 batch, got %v", ErrBadInput, in.Shape())
	}
}

// stackOutputs reassembles answered rows into one tensor whose leading
// dimension is their count.
func stackOutputs(rows []request) *tensor.Tensor {
	n, rest := len(rows), rows[0].out.Shape()
	stride := rest.NumElements()
	shape := append(tensor.Shape{n}, rest...)
	switch rows[0].out.DType() {
	case tensor.Float32:
		buf := make([]float32, n*stride)
		for i := range rows {
			copy(buf[i*stride:(i+1)*stride], rows[i].out.F32())
		}
		return tensor.FromF32(shape, buf)
	default:
		buf := make([]float64, n*stride)
		for i := range rows {
			copy(buf[i*stride:(i+1)*stride], rows[i].out.F64())
		}
		return tensor.FromF64(shape, buf)
	}
}

// Models implements Predictor: predict models plus generative ones.
func (s *Service) Models() []ModelStatus {
	return append(s.reg.Models(), s.genModels()...)
}

// Ready implements Predictor: serving at least one model (of either kind).
func (s *Service) Ready() bool {
	s.mu.Lock()
	closed, gens := s.closed, len(s.gens)
	s.mu.Unlock()
	return !closed && (s.reg.Ready() || gens > 0)
}

// Snapshots returns every model's counters.
func (s *Service) Snapshots() []StatsSnapshot {
	models := s.reg.Models()
	out := make([]StatsSnapshot, 0, len(models))
	for _, m := range models {
		s.mu.Lock()
		b := s.batchers[m.Name]
		s.mu.Unlock()
		if b == nil {
			continue
		}
		st := b.Stats()
		rows, batches := st.rows.Load(), st.batches.Load()
		mean := 0.0
		if batches > 0 {
			mean = float64(rows) / float64(batches)
		}
		out = append(out, StatsSnapshot{
			Model:       m.Name,
			Version:     m.Version,
			State:       m.State,
			Rows:        rows,
			Batches:     batches,
			BatchedRows: st.batchedRows.Load(),
			MeanBatch:   mean,
			MaxBatch:    st.maxBatch.Load(),
			Rejected:    st.rejected.Load(),
			Expired:     st.expired.Load(),
			Errors:      st.errs.Load(),
			Swaps:       st.swaps.Load(),
			Pending:     b.Pending(),
		})
	}
	return out
}

// StatsJSON implements Predictor.
func (s *Service) StatsJSON() ([]byte, error) {
	payload := map[string]any{"models": s.Snapshots()}
	if gs := s.genStats(); len(gs) > 0 {
		payload["generate"] = gs
	}
	return json.Marshal(payload)
}

// Close drains every batcher (queued requests are answered) and stops the
// service; models are unloaded afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	batchers := make([]*Batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		batchers = append(batchers, b)
	}
	gens := make([]*genEntry, 0, len(s.gens))
	for _, g := range s.gens {
		gens = append(gens, g)
	}
	s.mu.Unlock()
	for _, b := range batchers {
		b.Close()
	}
	for _, g := range gens {
		g.eng.Close()
	}
	for _, m := range s.reg.Models() {
		s.reg.Unload(m.Name)
	}
}
