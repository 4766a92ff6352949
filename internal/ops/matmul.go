package ops

import (
	"fmt"

	"tfhpc/internal/gemm"
	"tfhpc/internal/tensor"
)

func init() {
	Register(&OpDef{Name: "MatMul", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: matMulKernel})
	Register(&OpDef{Name: "MatVec", MinInputs: 2, MaxInputs: 2, GPUCapable: true, FreshOutput: true, Kernel: matVecKernel})
	Register(&OpDef{Name: "Transpose", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: transposeKernel})
}

// matMulKernel computes C = op(A)·op(B) with optional "transpose_a" /
// "transpose_b" attributes, in float32 or float64, through the packed,
// register-blocked engine in internal/gemm. Transposition is absorbed into
// the engine's panel packing, so no transposed copy is ever materialized.
func matMulKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a, b := in[0], in[1]
	if a.DType() != b.DType() {
		return nil, fmt.Errorf("MatMul: dtype mismatch %v vs %v", a.DType(), b.DType())
	}
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("MatMul: need rank-2 inputs, got %v and %v", a.Shape(), b.Shape())
	}
	ta := ctx != nil && ctx.BoolAttr("transpose_a", false)
	tb := ctx != nil && ctx.BoolAttr("transpose_b", false)
	lda, ldb := a.Shape()[1], b.Shape()[1]
	m, k := a.Shape()[0], a.Shape()[1]
	if ta {
		m, k = k, m
	}
	kb, n := b.Shape()[0], b.Shape()[1]
	if tb {
		kb, n = n, kb
	}
	if k != kb {
		return nil, fmt.Errorf("MatMul: inner dimensions disagree: %v · %v (transpose_a=%v, transpose_b=%v)",
			a.Shape(), b.Shape(), ta, tb)
	}
	switch a.DType() {
	case tensor.Float32:
		out := tensor.New(tensor.Float32, m, n)
		gemm.Gemm32(ta, tb, m, n, k, a.F32(), lda, b.F32(), ldb, out.F32(), n)
		return out, nil
	case tensor.Float64:
		out := tensor.New(tensor.Float64, m, n)
		gemm.Gemm64(ta, tb, m, n, k, a.F64(), lda, b.F64(), ldb, out.F64(), n)
		return out, nil
	}
	return nil, fmt.Errorf("MatMul: unsupported dtype %v", a.DType())
}

// matVecKernel computes y = A·x for a rank-2 A and rank-1 x.
func matVecKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	a, x := in[0], in[1]
	if a.DType() != x.DType() {
		return nil, fmt.Errorf("MatVec: dtype mismatch %v vs %v", a.DType(), x.DType())
	}
	if a.Rank() != 2 || x.Rank() != 1 {
		return nil, fmt.Errorf("MatVec: want matrix and vector, got %v and %v", a.Shape(), x.Shape())
	}
	m, n := a.Shape()[0], a.Shape()[1]
	if n != x.Shape()[0] {
		return nil, fmt.Errorf("MatVec: dimensions disagree: %v · %v", a.Shape(), x.Shape())
	}
	switch a.DType() {
	case tensor.Float32:
		out := tensor.New(tensor.Float32, m)
		gemm.MatVec32(m, n, a.F32(), n, x.F32(), out.F32())
		return out, nil
	case tensor.Float64:
		out := tensor.New(tensor.Float64, m)
		gemm.MatVec64(m, n, a.F64(), n, x.F64(), out.F64())
		return out, nil
	}
	return nil, fmt.Errorf("MatVec: unsupported dtype %v", a.DType())
}

func transpose2D(a *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("Transpose: need rank-2, got %v", a.Shape())
	}
	m, n := a.Shape()[0], a.Shape()[1]
	out := tensor.New(a.DType(), n, m)
	switch a.DType() {
	case tensor.Float32:
		gemm.Transpose32(m, n, a.F32(), out.F32())
	case tensor.Float64:
		gemm.Transpose64(m, n, a.F64(), out.F64())
	case tensor.Complex128:
		av, bv := a.C128(), out.C128()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				bv[j*m+i] = av[i*n+j]
			}
		}
	default:
		return nil, fmt.Errorf("Transpose: unsupported dtype %v", a.DType())
	}
	return out, nil
}

func transposeKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return transpose2D(in[0])
}
