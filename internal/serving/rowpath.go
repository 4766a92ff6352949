package serving

import (
	"fmt"
	"time"

	"tfhpc/internal/tensor"
)

// The row path answers one row synchronously into a caller-owned output
// tensor, straight through the version's row kernel and past the batcher's
// queue. No front-end uses it: every served row is admitted by the batcher.
// It is the benchmark's batcher-free reference — the bits a batched answer
// must equal, and the serving.row_us probe's cost of one row kernel. Its
// errors are the canonical serving set.

// NewRowOutput returns a fresh tensor shaped and typed like one row's output,
// for reuse across PredictRowInto calls. ErrNotFound means the model, or a
// row kernel for its current version, is missing.
func (s *Service) NewRowOutput(model string) (*tensor.Tensor, error) {
	mv := s.reg.Active(model)
	if mv == nil || mv.rowKernel == nil {
		return nil, fmt.Errorf("%w: no row kernel for %q", ErrNotFound, model)
	}
	return tensor.New(mv.sig.DType, mv.rowOutShape...), nil
}

// PredictRowInto serves one [features] row of the signature's dtype into
// out: validate, pin the version, run its row kernel. The row and out
// tensors stay caller-owned, and a zero deadline means none. Rows and
// expiries count in the model's batcher stats; nothing is allocated.
func (s *Service) PredictRowInto(model string, row, out *tensor.Tensor, deadline time.Time) error {
	b, err := s.batcher(model)
	if err != nil {
		return err
	}
	mv, err := s.reg.acquireRef(model)
	if err != nil {
		return err
	}
	defer mv.release()
	sig := mv.sig
	switch {
	case mv.rowKernel == nil:
		return fmt.Errorf("%w: %s v%d has no row kernel", ErrNotFound, model, mv.version)
	case row == nil || row.Rank() != 1 || row.Shape()[0] != sig.Features || row.DType() != sig.DType:
		return fmt.Errorf("%w: want [%d] %v row, got %v %v", ErrBadInput, sig.Features, sig.DType, shapeOf(row), dtypeOf(row))
	case out == nil || out.DType() != sig.DType || !out.Shape().Equal(mv.rowOutShape):
		return fmt.Errorf("%w: want a %v %v output, got %v %v", ErrBadInput, mv.rowOutShape, sig.DType, shapeOf(out), dtypeOf(out))
	case !deadline.IsZero() && !time.Now().Before(deadline):
		b.stats.expired.Add(1)
		mBatchExpired.Inc()
		return ErrDeadline
	}
	mv.rowKernel(row, out)
	b.recordBatch(1)
	return nil
}
