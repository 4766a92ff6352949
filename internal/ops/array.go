package ops

import (
	"fmt"
	"sync"

	"tfhpc/internal/tensor"
)

func init() {
	Register(&OpDef{Name: "Const", MinInputs: 0, MaxInputs: 0, Kernel: constKernel})
	Register(&OpDef{Name: "Placeholder", MinInputs: 0, MaxInputs: 0, Kernel: placeholderKernel})
	Register(&OpDef{Name: "Identity", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Kernel: identityKernel})
	Register(&OpDef{Name: "NoOp", MinInputs: 0, MaxInputs: -1, FreshOutput: true, Kernel: noOpKernel})
	Register(&OpDef{Name: "RandomUniform", MinInputs: 0, MaxInputs: 0, GPUCapable: true, Stateful: true, FreshOutput: true, Kernel: randomUniformKernel})
	Register(&OpDef{Name: "Zeros", MinInputs: 0, MaxInputs: 0, GPUCapable: true, FreshOutput: true, Kernel: zerosKernel})
	Register(&OpDef{Name: "Fill", MinInputs: 0, MaxInputs: 0, GPUCapable: true, FreshOutput: true, Kernel: fillKernel})
	Register(&OpDef{Name: "Reshape", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Kernel: reshapeKernel})
	Register(&OpDef{Name: "SliceRows", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: sliceRowsKernel})
	Register(&OpDef{Name: "ConcatRows", MinInputs: 1, MaxInputs: -1, GPUCapable: true, FreshOutput: true, Kernel: concatRowsKernel})
}

func constKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	v, ok := ctx.Attrs["value"].(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("Const: missing tensor attribute %q", "value")
	}
	return v, nil
}

func placeholderKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("Placeholder %q was not fed", ctx.NodeName)
}

func identityKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return in[0], nil
}

func noOpKernel(_ *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.ScalarI64(0), nil
}

// randomUniformKernel draws a fresh tensor per execution; "seed" pins the
// stream for reproducibility, combined with a per-node counter so repeated
// session runs see fresh values (as tf.random_uniform does).
var (
	randomMu       sync.Mutex
	randomCounters = map[string]uint64{}
)

func randomUniformKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	dt := ctx.DTypeAttr("dtype", tensor.Float32)
	shape := ctx.ShapeAttr("shape")
	seed := uint64(ctx.IntAttr("seed", 0))
	// A per-node sequence number mixes into the seed so repeated runs of the
	// same node yield fresh (but reproducible) draws.
	randomMu.Lock()
	randomCounters[ctx.NodeName]++
	seq := randomCounters[ctx.NodeName]
	randomMu.Unlock()
	r := tensor.NewRNG(seed*0x9e3779b9 + seq)
	t := tensor.New(dt, shape...)
	tensor.FillUniform(t, r)
	return t, nil
}

func zerosKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	dt := ctx.DTypeAttr("dtype", tensor.Float32)
	return tensor.New(dt, ctx.ShapeAttr("shape")...), nil
}

func fillKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	dt := ctx.DTypeAttr("dtype", tensor.Float32)
	v := ctx.FloatAttr("value", 0)
	t := tensor.New(dt, ctx.ShapeAttr("shape")...)
	switch dt {
	case tensor.Float32:
		d := t.F32()
		for i := range d {
			d[i] = float32(v)
		}
	case tensor.Float64:
		d := t.F64()
		for i := range d {
			d[i] = v
		}
	case tensor.Complex128:
		d := t.C128()
		for i := range d {
			d[i] = complex(v, 0)
		}
	case tensor.Int64:
		d := t.I64()
		for i := range d {
			d[i] = int64(v)
		}
	default:
		return nil, fmt.Errorf("Fill: unsupported dtype %v", dt)
	}
	return t, nil
}

func reshapeKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	shape := ctx.ShapeAttr("shape")
	return in[0].Reshape(shape...)
}

// sliceRowsKernel extracts rows [begin, begin+size) of a rank>=1 tensor.
func sliceRowsKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a := in[0]
	begin := ctx.IntAttr("begin", 0)
	size := ctx.IntAttr("size", -1)
	if a.Rank() < 1 {
		return nil, fmt.Errorf("SliceRows: need rank >= 1")
	}
	rows := a.Shape()[0]
	if size < 0 {
		size = rows - begin
	}
	if begin < 0 || begin+size > rows {
		return nil, fmt.Errorf("SliceRows: [%d, %d) out of %d rows", begin, begin+size, rows)
	}
	rowElems := a.NumElements() / max(rows, 1)
	outShape := a.Shape().Clone()
	outShape[0] = size
	out := tensor.New(a.DType(), outShape...)
	lo, hi := begin*rowElems, (begin+size)*rowElems
	switch a.DType() {
	case tensor.Float32:
		copy(out.F32(), a.F32()[lo:hi])
	case tensor.Float64:
		copy(out.F64(), a.F64()[lo:hi])
	case tensor.Complex128:
		copy(out.C128(), a.C128()[lo:hi])
	case tensor.Int64:
		copy(out.I64(), a.I64()[lo:hi])
	default:
		return nil, fmt.Errorf("SliceRows: unsupported dtype %v", a.DType())
	}
	return out, nil
}

// concatRowsKernel stacks its inputs along axis 0.
func concatRowsKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	first := in[0]
	totalRows := 0
	for _, t := range in {
		if t.DType() != first.DType() {
			return nil, fmt.Errorf("ConcatRows: dtype mismatch")
		}
		if t.Rank() != first.Rank() {
			return nil, fmt.Errorf("ConcatRows: rank mismatch")
		}
		for d := 1; d < t.Rank(); d++ {
			if t.Shape()[d] != first.Shape()[d] {
				return nil, fmt.Errorf("ConcatRows: trailing dims mismatch: %v vs %v", t.Shape(), first.Shape())
			}
		}
		totalRows += t.Shape()[0]
	}
	outShape := first.Shape().Clone()
	outShape[0] = totalRows
	out := tensor.New(first.DType(), outShape...)
	off := 0
	for _, t := range in {
		n := t.NumElements()
		switch first.DType() {
		case tensor.Float32:
			copy(out.F32()[off:], t.F32())
		case tensor.Float64:
			copy(out.F64()[off:], t.F64())
		case tensor.Complex128:
			copy(out.C128()[off:], t.C128())
		case tensor.Int64:
			copy(out.I64()[off:], t.I64())
		default:
			return nil, fmt.Errorf("ConcatRows: unsupported dtype %v", first.DType())
		}
		off += n
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
