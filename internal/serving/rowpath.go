package serving

import (
	"errors"
	"time"

	"tfhpc/internal/tensor"
)

// errNoFastPath reports that a model (or its current version) has no direct
// row kernel; callers fall back to the batcher path. It is a routing signal,
// not a request outcome, so it never crosses the wire.
var errNoFastPath = errors.New("serving: no row fast path")

// The row path is the streaming front-end's allocation-free fast path on a
// local Service: one row answered synchronously into a caller-owned output
// tensor, bypassing the batcher queue. Results are bit-identical to the same
// row served through Predict. A Router has no row path (its rows cross the
// wire anyway).

// NewRowOutput returns a fresh tensor shaped and typed like one row's output,
// for reuse across PredictRowInto calls. errNoFastPath (an unexported
// sentinel — treat any error as "use Predict") means the model's current
// version cannot serve rows directly.
func (s *Service) NewRowOutput(model string) (*tensor.Tensor, error) {
	mv := s.reg.Active(model)
	if mv == nil {
		return nil, ErrNotFound
	}
	if mv.rowKernel == nil {
		return nil, errNoFastPath
	}
	return tensor.New(mv.sig.DType, mv.rowOutShape...), nil
}

// PredictRowInto serves one [features] row into out: validate, pin the
// version, run its row kernel. The row and out tensors stay caller-owned.
// Deadline semantics match Predict except that a zero deadline means "no
// deadline" (the caller is already synchronous, there is no queue to bound).
// The whole path is allocation-free — acquireRef instead of Acquire's release
// closure, no goroutines, no channels — which is what lets the streaming
// front-end's steady state stay at zero allocs per request.
func (s *Service) PredictRowInto(model string, row, out *tensor.Tensor, deadline time.Time) error {
	b, err := s.batcher(model)
	if err != nil {
		return err
	}
	mv, err := s.reg.acquireRef(model)
	if err != nil {
		return err
	}
	if mv.rowKernel == nil {
		mv.release()
		return errNoFastPath
	}
	sig := mv.sig
	if row == nil || row.Rank() != 1 || row.Shape()[0] != sig.Features || row.DType() != sig.DType {
		// Rows needing dtype conversion take the batcher path, which owns
		// that deterministic conversion; the fast path serves wire-native
		// rows only.
		mv.release()
		if row == nil || row.Rank() != 1 || row.Shape()[0] != sig.Features || !row.DType().IsFloat() {
			return ErrBadInput
		}
		return errNoFastPath
	}
	if out == nil || out.DType() != sig.DType || !out.Shape().Equal(mv.rowOutShape) {
		mv.release()
		return errNoFastPath // stale scratch after a hot-swap: caller refreshes
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		mv.release()
		b.stats.expired.Add(1)
		mBatchExpired.Inc()
		return ErrDeadline
	}
	mv.rowKernel(row, out)
	mv.release()
	b.recordBatch(1)
	return nil
}
