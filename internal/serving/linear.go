package serving

import (
	"fmt"

	"tfhpc/internal/checkpoint"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
	"tfhpc/internal/vars"
)

// LinearGraphID tags checkpoints holding a servable linear model (variable
// "w", prediction X·w) — the format tfsgd -checkpoint writes and tfserve
// -model loads, closing the train → checkpoint → serve → predict loop.
const LinearGraphID = "tfhpc/serving/linear"

// NewLinear builds a served linear model: input [n, d] placeholder, weight
// vector w (d), output = input·w of shape [n]. The per-row dot product has
// a fixed reduction order, so batched and single-row serving agree bitwise.
func NewLinear(model string, version int, w *tensor.Tensor) (*ModelVersion, error) {
	if w == nil || w.Rank() != 1 {
		return nil, fmt.Errorf("serving: linear model needs a rank-1 weight vector, got %v", shapeOf(w))
	}
	g := graph.New()
	in := g.Placeholder("input", w.DType(), nil)
	wv := g.AddNamedOp("w", "Variable", graph.Attrs{"var_name": "w"})
	g.AddNamedOp("output", "MatVec", nil, in, wv)
	sig := Signature{InputName: "input", OutputName: "output", Features: w.Shape()[0], DType: w.DType()}
	mv, err := NewModelVersion(model, version, g, sig, map[string]*tensor.Tensor{"w": w})
	if err != nil {
		return nil, err
	}
	// Row kernel: one row is one dot product. Dot32/Dot64 use the
	// exact split-accumulator reduction MatVec32/MatVec64 apply per row, so
	// this is bitwise the same answer a 1-row (or coalesced) batch produces.
	mv.rowOutShape = tensor.Shape{}
	switch w.DType() {
	case tensor.Float32:
		wd := append([]float32(nil), w.F32()...)
		mv.rowKernel = func(row, out *tensor.Tensor) {
			out.F32()[0] = float32(gemm.Dot32(row.F32(), wd))
		}
	default:
		wd := append([]float64(nil), w.F64()...)
		mv.rowKernel = func(row, out *tensor.Tensor) {
			out.F64()[0] = gemm.Dot64(row.F64(), wd)
		}
	}
	return mv, nil
}

// SaveLinear checkpoints a trained weight vector in the servable linear
// format; step becomes the model version on load.
func SaveLinear(path string, step int64, w *tensor.Tensor) error {
	if w == nil || w.Rank() != 1 {
		return fmt.Errorf("serving: linear checkpoint needs a rank-1 weight vector, got %v", shapeOf(w))
	}
	store := vars.NewStore()
	if err := store.Get("w").Assign(w); err != nil {
		return err
	}
	return checkpoint.Capture(LinearGraphID, step, store).Save(path)
}

// LoadLinear loads a servable linear model from a checkpoint written by
// SaveLinear (or any checkpoint with the linear GraphID and a "w" vector).
// version <= 0 takes the checkpoint's step as the version.
func LoadLinear(model string, version int, path string) (*ModelVersion, error) {
	c, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	if c.GraphID != LinearGraphID {
		return nil, fmt.Errorf("serving: checkpoint %s has graph id %q, want %q", path, c.GraphID, LinearGraphID)
	}
	w, ok := c.Vars["w"]
	if !ok {
		return nil, fmt.Errorf("serving: checkpoint %s has no variable %q", path, "w")
	}
	if version <= 0 {
		version = int(c.Step)
		if version <= 0 {
			version = 1
		}
	}
	return NewLinear(model, version, w)
}
