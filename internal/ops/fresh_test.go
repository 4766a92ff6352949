package ops

import (
	"sort"
	"testing"
	"unsafe"

	"tfhpc/internal/tensor"
)

// storage returns the address range of t's elements.
func storage(t *tensor.Tensor) (lo, hi uintptr) {
	if t.NumElements() == 0 {
		return 0, 0
	}
	var p unsafe.Pointer
	switch t.DType() {
	case tensor.Float32:
		p = unsafe.Pointer(&t.F32()[0])
	case tensor.Float64:
		p = unsafe.Pointer(&t.F64()[0])
	case tensor.Complex128:
		p = unsafe.Pointer(&t.C128()[0])
	case tensor.Int64:
		p = unsafe.Pointer(&t.I64()[0])
	default:
		panic("storage: unhandled dtype " + t.DType().String())
	}
	return uintptr(p), uintptr(p) + uintptr(t.ByteSize())
}

func overlaps(a, b *tensor.Tensor) bool {
	alo, ahi := storage(a)
	blo, bhi := storage(b)
	return alo < bhi && blo < ahi
}

// Every FreshOutput op returns storage of its own: on random inputs its
// output overlaps no input, and a second run on the same inputs returns
// different storage again (no cached result).
func TestFreshOutputOpsShareNoStorage(t *testing.T) {
	r := tensor.NewRNG(11)
	rnd := func(dt tensor.DType, shape ...int) *tensor.Tensor {
		x := tensor.New(dt, shape...)
		tensor.FillUniform(x, r)
		return x
	}
	f64 := func(shape ...int) *tensor.Tensor { return rnd(tensor.Float64, shape...) }
	c128 := func(shape ...int) *tensor.Tensor { return rnd(tensor.Complex128, shape...) }
	type call struct {
		attrs map[string]any
		in    []*tensor.Tensor
	}
	shape := map[string]any{"dtype": tensor.Float64, "shape": tensor.Shape{3, 4}}
	cases := map[string]call{
		"Add":           {nil, []*tensor.Tensor{f64(9), f64(9)}},
		"Sub":           {nil, []*tensor.Tensor{f64(9), f64(9)}},
		"Mul":           {nil, []*tensor.Tensor{f64(9), f64(9)}},
		"Div":           {nil, []*tensor.Tensor{f64(9), f64(9)}},
		"Neg":           {nil, []*tensor.Tensor{f64(9)}},
		"Sqrt":          {nil, []*tensor.Tensor{f64(9)}},
		"AddN":          {nil, []*tensor.Tensor{f64(9), f64(9), f64(9)}},
		"Scale":         {nil, []*tensor.Tensor{f64(), f64(9)}},
		"Axpy":          {nil, []*tensor.Tensor{f64(), f64(9), f64(9)}},
		"Dot":           {nil, []*tensor.Tensor{f64(9), f64(9)}},
		"Sum":           {nil, []*tensor.Tensor{f64(9)}},
		"Cast":          {map[string]any{"dtype": tensor.Float64}, []*tensor.Tensor{f64(9)}},
		"MatMul":        {nil, []*tensor.Tensor{f64(3, 4), f64(4, 2)}},
		"MatVec":        {nil, []*tensor.Tensor{f64(3, 4), f64(4)}},
		"Transpose":     {nil, []*tensor.Tensor{f64(3, 4)}},
		"SliceRows":     {map[string]any{"begin": 0, "size": 3}, []*tensor.Tensor{f64(3, 4)}},
		"ConcatRows":    {nil, []*tensor.Tensor{f64(3, 4)}},
		"Zeros":         {shape, nil},
		"Fill":          {map[string]any{"dtype": tensor.Float64, "shape": tensor.Shape{3, 4}, "value": 2.0}, nil},
		"RandomUniform": {shape, nil},
		"NoOp":          {nil, []*tensor.Tensor{f64(9)}},
		"FFT":           {nil, []*tensor.Tensor{c128(8)}},
		"IFFT":          {nil, []*tensor.Tensor{c128(2, 8)}},
		"FFT2D":         {nil, []*tensor.Tensor{c128(4, 4)}},
		"IFFT2D":        {nil, []*tensor.Tensor{c128(4, 4)}},
		"RFFT":          {nil, []*tensor.Tensor{f64(8)}},
		"IRFFT":         {nil, []*tensor.Tensor{c128(5)}},
	}
	names := Names()
	sort.Strings(names)
	for _, name := range names {
		def, _ := Lookup(name)
		if !def.FreshOutput {
			continue
		}
		c, ok := cases[name]
		if !ok {
			t.Errorf("%s is FreshOutput but has no case in this table", name)
			continue
		}
		ctx := &Context{NodeName: name, Attrs: c.attrs}
		out, err := Run(name, ctx, c.in)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for i, x := range c.in {
			if overlaps(out, x) {
				t.Errorf("%s: output shares storage with input %d", name, i)
			}
		}
		again, err := Run(name, ctx, c.in)
		if err != nil {
			t.Errorf("%s: second run: %v", name, err)
		} else if overlaps(out, again) {
			t.Errorf("%s: two runs returned the same storage", name)
		}
	}
}
