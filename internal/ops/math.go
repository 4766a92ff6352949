package ops

import (
	"fmt"
	"math"

	"tfhpc/internal/gemm"
	"tfhpc/internal/tensor"
)

func init() {
	Register(&OpDef{Name: "Add", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: addKernel})
	Register(&OpDef{Name: "Sub", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: subKernel})
	Register(&OpDef{Name: "Mul", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: mulKernel})
	Register(&OpDef{Name: "Div", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: divKernel})
	Register(&OpDef{Name: "Neg", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: negKernel})
	Register(&OpDef{Name: "Sqrt", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: sqrtKernel})
	Register(&OpDef{Name: "AddN", MinInputs: 1, MaxInputs: -1, GPUCapable: true, FreshOutput: true, Kernel: addNKernel})
	Register(&OpDef{Name: "Scale", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: scaleKernel})
	Register(&OpDef{Name: "Axpy", MinInputs: 3, MaxInputs: 3, GPUCapable: true, FreshOutput: true, Kernel: axpyKernel})
	Register(&OpDef{Name: "Dot", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: dotKernel})
	Register(&OpDef{Name: "Sum", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: sumKernel})
	Register(&OpDef{Name: "Cast", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: castKernel})
}

func sameShapeDType(a, b *tensor.Tensor) error {
	if a.DType() != b.DType() {
		return fmt.Errorf("dtype mismatch: %v vs %v", a.DType(), b.DType())
	}
	if !a.Shape().Equal(b.Shape()) {
		return fmt.Errorf("shape mismatch: %v vs %v", a.Shape(), b.Shape())
	}
	return nil
}

// binary applies an elementwise combiner over two same-shaped tensors.
func binary(a, b *tensor.Tensor,
	f32 func(x, y float32) float32,
	f64 func(x, y float64) float64,
	c128 func(x, y complex128) complex128,
	i64 func(x, y int64) int64,
) (*tensor.Tensor, error) {
	if err := sameShapeDType(a, b); err != nil {
		return nil, err
	}
	out := tensor.New(a.DType(), a.Shape()...)
	switch a.DType() {
	case tensor.Float32:
		x, y, z := a.F32(), b.F32(), out.F32()
		parallelFor(len(z), 1<<14, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = f32(x[i], y[i])
			}
		})
	case tensor.Float64:
		x, y, z := a.F64(), b.F64(), out.F64()
		parallelFor(len(z), 1<<14, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = f64(x[i], y[i])
			}
		})
	case tensor.Complex128:
		x, y, z := a.C128(), b.C128(), out.C128()
		parallelFor(len(z), 1<<13, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = c128(x[i], y[i])
			}
		})
	case tensor.Int64:
		x, y, z := a.I64(), b.I64(), out.I64()
		for i := range z {
			z[i] = i64(x[i], y[i])
		}
	default:
		return nil, fmt.Errorf("unsupported dtype %v", a.DType())
	}
	return out, nil
}

func addKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return binary(in[0], in[1],
		func(x, y float32) float32 { return x + y },
		func(x, y float64) float64 { return x + y },
		func(x, y complex128) complex128 { return x + y },
		func(x, y int64) int64 { return x + y })
}

func subKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return binary(in[0], in[1],
		func(x, y float32) float32 { return x - y },
		func(x, y float64) float64 { return x - y },
		func(x, y complex128) complex128 { return x - y },
		func(x, y int64) int64 { return x - y })
}

func mulKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return binary(in[0], in[1],
		func(x, y float32) float32 { return x * y },
		func(x, y float64) float64 { return x * y },
		func(x, y complex128) complex128 { return x * y },
		func(x, y int64) int64 { return x * y })
}

func divKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return binary(in[0], in[1],
		func(x, y float32) float32 { return x / y },
		func(x, y float64) float64 { return x / y },
		func(x, y complex128) complex128 { return x / y },
		func(x, y int64) int64 { return x / y })
}

func negKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a := in[0]
	out := tensor.New(a.DType(), a.Shape()...)
	switch a.DType() {
	case tensor.Float32:
		x, z := a.F32(), out.F32()
		for i := range z {
			z[i] = -x[i]
		}
	case tensor.Float64:
		x, z := a.F64(), out.F64()
		for i := range z {
			z[i] = -x[i]
		}
	case tensor.Complex128:
		x, z := a.C128(), out.C128()
		for i := range z {
			z[i] = -x[i]
		}
	case tensor.Int64:
		x, z := a.I64(), out.I64()
		for i := range z {
			z[i] = -x[i]
		}
	default:
		return nil, fmt.Errorf("unsupported dtype %v", a.DType())
	}
	return out, nil
}

func sqrtKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a := in[0]
	out := tensor.New(a.DType(), a.Shape()...)
	switch a.DType() {
	case tensor.Float32:
		x, z := a.F32(), out.F32()
		for i := range z {
			z[i] = float32(math.Sqrt(float64(x[i])))
		}
	case tensor.Float64:
		x, z := a.F64(), out.F64()
		for i := range z {
			z[i] = math.Sqrt(x[i])
		}
	default:
		return nil, fmt.Errorf("Sqrt: unsupported dtype %v", a.DType())
	}
	return out, nil
}

func addNKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	acc := in[0].Clone()
	for _, t := range in[1:] {
		if err := sameShapeDType(acc, t); err != nil {
			return nil, err
		}
		switch acc.DType() {
		case tensor.Float32:
			a, b := acc.F32(), t.F32()
			for i := range a {
				a[i] += b[i]
			}
		case tensor.Float64:
			a, b := acc.F64(), t.F64()
			for i := range a {
				a[i] += b[i]
			}
		case tensor.Complex128:
			a, b := acc.C128(), t.C128()
			for i := range a {
				a[i] += b[i]
			}
		case tensor.Int64:
			a, b := acc.I64(), t.I64()
			for i := range a {
				a[i] += b[i]
			}
		default:
			return nil, fmt.Errorf("AddN: unsupported dtype %v", acc.DType())
		}
	}
	return acc, nil
}

// Scale multiplies tensor in[1] by scalar in[0] (the scalar's dtype must
// match or be the real part type of a complex tensor).
func scaleKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	s, a := in[0], in[1]
	if s.NumElements() != 1 {
		return nil, fmt.Errorf("Scale: first input must be a scalar, got shape %v", s.Shape())
	}
	out := tensor.New(a.DType(), a.Shape()...)
	switch a.DType() {
	case tensor.Float32:
		alpha := float32(s.ScalarFloat())
		x, z := a.F32(), out.F32()
		parallelFor(len(z), 1<<14, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = alpha * x[i]
			}
		})
	case tensor.Float64:
		alpha := s.ScalarFloat()
		x, z := a.F64(), out.F64()
		parallelFor(len(z), 1<<14, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				z[i] = alpha * x[i]
			}
		})
	case tensor.Complex128:
		var alpha complex128
		if s.DType() == tensor.Complex128 {
			alpha = s.C128()[0]
		} else {
			alpha = complex(s.ScalarFloat(), 0)
		}
		x, z := a.C128(), out.C128()
		for i := range z {
			z[i] = alpha * x[i]
		}
	default:
		return nil, fmt.Errorf("Scale: unsupported dtype %v", a.DType())
	}
	return out, nil
}

// Axpy computes alpha*x + y in one fused pass: the CG solver's workhorse.
func axpyKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	s, x, y := in[0], in[1], in[2]
	if s.NumElements() != 1 {
		return nil, fmt.Errorf("Axpy: first input must be a scalar")
	}
	if err := sameShapeDType(x, y); err != nil {
		return nil, err
	}
	out := tensor.New(x.DType(), x.Shape()...)
	switch x.DType() {
	case tensor.Float32:
		gemm.Axpy32(float32(s.ScalarFloat()), x.F32(), y.F32(), out.F32())
	case tensor.Float64:
		gemm.Axpy64(s.ScalarFloat(), x.F64(), y.F64(), out.F64())
	default:
		return nil, fmt.Errorf("Axpy: unsupported dtype %v", x.DType())
	}
	return out, nil
}

func dotKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a, b := in[0], in[1]
	if err := sameShapeDType(a, b); err != nil {
		return nil, err
	}
	switch a.DType() {
	case tensor.Float32:
		// gemm.Dot32 accumulates in double for stability.
		return tensor.ScalarF32(float32(gemm.Dot32(a.F32(), b.F32()))), nil
	case tensor.Float64:
		return tensor.ScalarF64(gemm.Dot64(a.F64(), b.F64())), nil
	case tensor.Complex128:
		x, y := a.C128(), b.C128()
		var s complex128
		for i := range x {
			s += x[i] * y[i]
		}
		return tensor.ScalarC128(s), nil
	}
	return nil, fmt.Errorf("Dot: unsupported dtype %v", a.DType())
}

func sumKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a := in[0]
	switch a.DType() {
	case tensor.Float32:
		var s float64
		for _, v := range a.F32() {
			s += float64(v)
		}
		return tensor.ScalarF32(float32(s)), nil
	case tensor.Float64:
		var s float64
		for _, v := range a.F64() {
			s += v
		}
		return tensor.ScalarF64(s), nil
	case tensor.Complex128:
		var s complex128
		for _, v := range a.C128() {
			s += v
		}
		return tensor.ScalarC128(s), nil
	case tensor.Int64:
		var s int64
		for _, v := range a.I64() {
			s += v
		}
		return tensor.ScalarI64(s), nil
	}
	return nil, fmt.Errorf("Sum: unsupported dtype %v", a.DType())
}

// Cast converts between real float dtypes (attr "dtype" is the target).
func castKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a := in[0]
	target := ctx.DTypeAttr("dtype", a.DType())
	if target == a.DType() {
		return a.Clone(), nil
	}
	out := tensor.New(target, a.Shape()...)
	get := func(i int) float64 {
		switch a.DType() {
		case tensor.Float32:
			return float64(a.F32()[i])
		case tensor.Float64:
			return a.F64()[i]
		case tensor.Int32:
			return float64(a.I32()[i])
		case tensor.Int64:
			return float64(a.I64()[i])
		}
		return math.NaN()
	}
	if !a.DType().IsFloat() && a.DType() != tensor.Int32 && a.DType() != tensor.Int64 {
		return nil, fmt.Errorf("Cast: unsupported source dtype %v", a.DType())
	}
	n := a.NumElements()
	switch target {
	case tensor.Float32:
		z := out.F32()
		for i := 0; i < n; i++ {
			z[i] = float32(get(i))
		}
	case tensor.Float64:
		z := out.F64()
		for i := 0; i < n; i++ {
			z[i] = get(i)
		}
	case tensor.Int64:
		z := out.I64()
		for i := 0; i < n; i++ {
			z[i] = int64(get(i))
		}
	case tensor.Complex128:
		z := out.C128()
		for i := 0; i < n; i++ {
			z[i] = complex(get(i), 0)
		}
	default:
		return nil, fmt.Errorf("Cast: unsupported target dtype %v", target)
	}
	return out, nil
}
