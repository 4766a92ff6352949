package serving

import (
	"errors"
	"fmt"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/tensor"
	"tfhpc/internal/vars"
)

// GenerativeGraphID tags checkpoints holding a servable autoregressive model
// (variable "w", decode step y = h·w with tanh feedback) — the format
// tfsgd -gen-checkpoint writes and tfserve -genmodel loads, extending the
// train → checkpoint → serve loop to token streaming.
const GenerativeGraphID = "tfhpc/serving/generative"

// mapGenErr maps the generate package's sentinels onto the serving canonical
// set, so HTTP codes and wire status bytes stay exact for generative
// outcomes too.
func mapGenErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, generate.ErrOverloaded):
		return ErrOverloaded
	case errors.Is(err, generate.ErrDeadline):
		return ErrDeadline
	case errors.Is(err, generate.ErrClosed):
		return ErrClosed
	case errors.Is(err, generate.ErrBadRequest):
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	default:
		return err
	}
}

// mappedStream wraps an engine stream so Finish reports serving-canonical
// errors.
type mappedStream struct {
	generate.Stream
}

func (ms mappedStream) Finish() (generate.FinishReason, error) {
	reason, err := ms.Stream.Finish()
	return reason, mapGenErr(err)
}

// genEntry is one served generative model: its engine plus the version tag
// for the status endpoints.
type genEntry struct {
	eng     *generate.Engine
	version int
}

// ServeGenerative installs (or hot-swaps in) a generative model: a trained
// weight vector w served by a continuous-batching engine. The replaced
// engine, if any, is closed — its in-flight sequences finish with ErrClosed,
// the generative analogue of a batcher swap.
func (s *Service) ServeGenerative(name string, version int, w *tensor.Tensor, opts generate.Options) error {
	if w == nil || w.Rank() != 1 {
		return fmt.Errorf("%w: generative model needs a rank-1 weight vector, got %v", ErrBadInput, shapeOf(w))
	}
	var wd []float64
	if w.DType() == tensor.Float32 {
		f := w.F32()
		wd = make([]float64, len(f))
		for i, v := range f {
			wd[i] = float64(v)
		}
	} else {
		wd = append([]float64(nil), w.F64()...)
	}
	m, err := generate.NewModel(name, wd)
	if err != nil {
		return mapGenErr(err)
	}
	eng := generate.NewEngine(m, opts)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		eng.Close()
		return ErrClosed
	}
	if s.gens == nil {
		s.gens = make(map[string]*genEntry)
	}
	old := s.gens[name]
	s.gens[name] = &genEntry{eng: eng, version: version}
	s.mu.Unlock()
	if old != nil {
		old.eng.Close()
	}
	return nil
}

// Generate implements Predictor on the local service: one engine per model.
func (s *Service) Generate(model string, req generate.Request) (generate.Stream, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	g := s.gens[model]
	s.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, model)
	}
	st, err := g.eng.Submit(req)
	if err != nil {
		return nil, mapGenErr(err)
	}
	return mappedStream{st}, nil
}

// genModels lists generative models for the status endpoints.
func (s *Service) genModels() []ModelStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ModelStatus, 0, len(s.gens))
	for name, g := range s.gens {
		out = append(out, ModelStatus{Name: name, Version: g.version, State: "active", Ready: !s.closed})
	}
	return out
}

// genStats snapshots every generative engine's counters (the /statsz view).
func (s *Service) genStats() []generate.Stats {
	s.mu.Lock()
	engs := make([]*generate.Engine, 0, len(s.gens))
	for _, g := range s.gens {
		engs = append(engs, g.eng)
	}
	s.mu.Unlock()
	out := make([]generate.Stats, 0, len(engs))
	for _, eng := range engs {
		out = append(out, eng.Stats())
	}
	return out
}

// SaveGenerative checkpoints a trained weight vector in the servable
// generative format; step becomes the model version on load.
func SaveGenerative(path string, step int64, w *tensor.Tensor) error {
	if w == nil || w.Rank() != 1 {
		return fmt.Errorf("serving: generative checkpoint needs a rank-1 weight vector, got %v", shapeOf(w))
	}
	store := vars.NewStore()
	if err := store.Get("w").Assign(w); err != nil {
		return err
	}
	return checkpoint.Capture(GenerativeGraphID, step, store).Save(path)
}

// LoadGenerative loads a generative checkpoint written by SaveGenerative.
// version <= 0 takes the checkpoint's step as the version.
func LoadGenerative(path string, version int) (*tensor.Tensor, int, error) {
	c, err := checkpoint.Load(path)
	if err != nil {
		return nil, 0, err
	}
	if c.GraphID != GenerativeGraphID {
		return nil, 0, fmt.Errorf("serving: checkpoint %s has graph id %q, want %q", path, c.GraphID, GenerativeGraphID)
	}
	w, ok := c.Vars["w"]
	if !ok {
		return nil, 0, fmt.Errorf("serving: checkpoint %s has no variable %q", path, "w")
	}
	if version <= 0 {
		version = int(c.Step)
		if version <= 0 {
			version = 1
		}
	}
	return w, version, nil
}
