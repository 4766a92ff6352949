package ops

import (
	"fmt"
	"math"

	"tfhpc/internal/fft"
	"tfhpc/internal/tensor"
)

func init() {
	Register(&OpDef{Name: "FFT", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: fftKernel})
	Register(&OpDef{Name: "IFFT", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: ifftKernel})
	Register(&OpDef{Name: "FFT2D", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: fft2dKernel})
	Register(&OpDef{Name: "IFFT2D", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: ifft2dKernel})
	Register(&OpDef{Name: "RFFT", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: rfftKernel})
	Register(&OpDef{Name: "IRFFT", MinInputs: 1, MaxInputs: 1, GPUCapable: true, FreshOutput: true, Kernel: irfftKernel})
}

func fftKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return fftOp(in[0], false)
}

func ifftKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return fftOp(in[0], true)
}

// fftOp transforms a rank-1 signal, or a rank-2 batch of signals one per
// row (the shape the distributed-FFT workers feed), through the planned
// engine in internal/fft.
func fftOp(t *tensor.Tensor, inverse bool) (*tensor.Tensor, error) {
	if t.DType() != tensor.Complex128 {
		return nil, fmt.Errorf("FFT: need complex128, got %v", t.DType())
	}
	var n int
	switch t.Rank() {
	case 1:
		n = t.Shape()[0]
	case 2:
		n = t.Shape()[1]
	default:
		return nil, fmt.Errorf("FFT: need rank-1 signal or rank-2 batch, got %v", t.Shape())
	}
	p, err := fft.PlanFor(n)
	if err != nil {
		return nil, err
	}
	out := t.Clone()
	if err := p.TransformBatch(out.C128(), inverse); err != nil {
		return nil, err
	}
	return out, nil
}

func fft2dKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return fft2dOp(in[0], false)
}

func ifft2dKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return fft2dOp(in[0], true)
}

func fft2dOp(t *tensor.Tensor, inverse bool) (*tensor.Tensor, error) {
	if t.DType() != tensor.Complex128 {
		return nil, fmt.Errorf("FFT2D: need complex128, got %v", t.DType())
	}
	if t.Rank() != 2 {
		return nil, fmt.Errorf("FFT2D: need rank-2, got %v", t.Shape())
	}
	out := t.Clone()
	if err := fft.FFT2D(out.C128(), t.Shape()[0], t.Shape()[1], inverse); err != nil {
		return nil, err
	}
	return out, nil
}

// rfftKernel transforms a rank-1 real signal into its n/2+1 half-spectrum.
func rfftKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	t := in[0]
	if t.DType() != tensor.Float64 {
		return nil, fmt.Errorf("RFFT: need float64, got %v", t.DType())
	}
	if t.Rank() != 1 {
		return nil, fmt.Errorf("RFFT: need rank-1, got %v", t.Shape())
	}
	spec, err := fft.RFFT(t.F64())
	if err != nil {
		return nil, err
	}
	return tensor.FromC128(tensor.Shape{len(spec)}, spec), nil
}

// irfftKernel reconstructs the 2·(len-1) real samples behind a rank-1
// half-spectrum.
func irfftKernel(_ *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	t := in[0]
	if t.DType() != tensor.Complex128 {
		return nil, fmt.Errorf("IRFFT: need complex128, got %v", t.DType())
	}
	if t.Rank() != 1 || t.Shape()[0] < 2 {
		return nil, fmt.Errorf("IRFFT: need a rank-1 half-spectrum, got %v", t.Shape())
	}
	n := 2 * (t.Shape()[0] - 1)
	x, err := fft.IRFFT(t.C128(), n)
	if err != nil {
		return nil, err
	}
	return tensor.FromF64(tensor.Shape{n}, x), nil
}

// NaiveDFT computes the O(n²) discrete Fourier transform, used as the
// reference in tests and for the merger's correctness checks. Each phase
// k·j is reduced mod n before it indexes one table of n roots, so the
// reference's own error does not grow with k·j.
func NaiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for j := range w {
		s, c := math.Sincos(sign * 2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j, ph := 0, 0; j < n; j++ {
			s += x[j] * w[ph]
			if ph += k; ph >= n {
				ph -= n
			}
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}
