// Package serving is the online-inference subsystem: it turns trained
// dataflow graphs into network services, the deployment mode the TensorFlow
// system papers pair with training. The pieces compose the way a production
// model server (TF Serving, KServe) does:
//
//   - Registry: versioned, immutable ModelVersions with concurrent hot-swap
//     and graceful drain — traffic never sees torn weights and in-flight
//     requests survive a swap.
//   - Batcher: a dynamic micro-batcher that coalesces concurrent single-row
//     Predict requests into one batched session run along the leading
//     dimension, so the packed GEMM engine runs at matrix — not vector —
//     arithmetic intensity. No flush timer: callers lead batches themselves,
//     and rows coalesce only while every runner is busy.
//   - Admission control: bounded per-model queues with backpressure and
//     per-request deadlines. The precedence is reject > queue > time out,
//     and all three outcomes are counted.
//   - Front-ends: a KServe-style HTTP/JSON predictor API and a framed
//     binary endpoint over internal/rpc, both driving the same Predictor:
//     every row they carry is admitted, queued and counted by the batcher.
//   - Router: spreads requests across model replicas hosted on cluster
//     worker tasks — least-loaded pick, failure-aware retry.
//
// Per-row results are bit-for-bit identical whether a row is served alone
// or inside a coalesced batch: the MatVec/MatMul kernels compute each output
// row with a fixed per-row reduction order that does not depend on the
// leading dimension. The CI smoke asserts this end-to-end over HTTP.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// Canonical request-outcome errors. Front-ends map them onto protocol
// status codes (HTTP 404/429/504, stream status bytes) and the stream
// clients map the bytes back to these values after a remote hop, so the
// classification survives the wire.
var (
	// ErrNotFound: no model (or no active version) under that name.
	ErrNotFound = errors.New("serving: model not found")
	// ErrOverloaded: the model's admission queue is full — backpressure;
	// the caller should shed or retry elsewhere. Counted as rejected.
	ErrOverloaded = errors.New("serving: overloaded, request rejected")
	// ErrDeadline: the request's deadline passed before a prediction was
	// produced. Counted as expired.
	ErrDeadline = errors.New("serving: deadline exceeded")
	// ErrBadInput: the request tensor does not match the model signature.
	ErrBadInput = errors.New("serving: bad input")
	// ErrClosed: the service is shutting down.
	ErrClosed = errors.New("serving: closed")
)

// Signature is a model's single-tensor predict interface: feed a
// [batch, features] tensor to the input placeholder, fetch the output node,
// whose leading dimension is the batch.
type Signature struct {
	InputName  string       `json:"input"`
	OutputName string       `json:"output"`
	Features   int          `json:"features"`
	DType      tensor.DType `json:"-"`
}

// ModelVersion is one immutable loaded version: a graph bound to its own
// resources (weights assigned once at load, never reassigned), plus the
// drain state the registry uses for hot-swap. All methods are safe for
// concurrent use; Predict may run many batches at once.
type ModelVersion struct {
	model   string
	version int
	sig     Signature
	sess    *session.Session

	// rowKernel, when set, computes one row's outputs directly into a
	// tensor of shape rowOutShape: the batcher runs a lone row through it
	// instead of a session run, and the benchmark's batcher-free reference
	// (rowpath.go) calls it straight. It must be bit-identical to a 1-row
	// batch through the session (the linear model's dot product is the
	// MatVec kernel's own per-row reduction).
	rowKernel   func(row, out *tensor.Tensor)
	rowOutShape tensor.Shape

	mu       sync.Mutex
	inflight int
	draining bool
	drained  chan struct{}
}

// NewModelVersion loads a version: the weights are assigned into a fresh
// variable store exactly once, making the version immutable from then on.
func NewModelVersion(model string, version int, g *graph.Graph, sig Signature,
	weights map[string]*tensor.Tensor) (*ModelVersion, error) {
	if model == "" {
		return nil, fmt.Errorf("serving: model name required")
	}
	if sig.Features <= 0 {
		return nil, fmt.Errorf("serving: signature needs a positive feature count")
	}
	if sig.DType != tensor.Float32 && sig.DType != tensor.Float64 {
		return nil, fmt.Errorf("serving: unsupported signature dtype %v", sig.DType)
	}
	if g.Lookup(sig.InputName) == nil {
		return nil, fmt.Errorf("serving: graph has no input node %q", sig.InputName)
	}
	if g.Lookup(sig.OutputName) == nil {
		return nil, fmt.Errorf("serving: graph has no output node %q", sig.OutputName)
	}
	res := session.NewResources()
	for name, t := range weights {
		if err := res.Vars.Get(name).Assign(t); err != nil {
			return nil, fmt.Errorf("serving: load %s v%d: %w", model, version, err)
		}
	}
	sess, err := session.New(g, res, session.Options{})
	if err != nil {
		return nil, err
	}
	return &ModelVersion{
		model: model, version: version, sig: sig, sess: sess,
		drained: make(chan struct{}),
	}, nil
}

// Model returns the model name this version belongs to.
func (mv *ModelVersion) Model() string { return mv.model }

// Version returns the version number.
func (mv *ModelVersion) Version() int { return mv.version }

// Signature returns the predict interface.
func (mv *ModelVersion) Signature() Signature { return mv.sig }

// State reports "active", "draining" or "unloaded" (draining complete).
func (mv *ModelVersion) State() string {
	mv.mu.Lock()
	defer mv.mu.Unlock()
	if !mv.draining {
		return "active"
	}
	if mv.inflight > 0 {
		return "draining"
	}
	return "unloaded"
}

// Predict runs one batched inference: in must be [n, features] of the
// signature dtype; the result's leading dimension is n. Callers going
// through the Registry must hold an acquire ref (Registry.Acquire) so a
// concurrent hot-swap drains gracefully instead of unloading underneath us.
func (mv *ModelVersion) Predict(in *tensor.Tensor) (*tensor.Tensor, error) {
	return mv.PredictContext(context.Background(), in)
}

// PredictContext is Predict whose session run records its spans under the
// span ctx carries (Session.RunContext).
func (mv *ModelVersion) PredictContext(ctx context.Context, in *tensor.Tensor) (*tensor.Tensor, error) {
	if in == nil || in.Rank() != 2 || in.Shape()[1] != mv.sig.Features {
		return nil, fmt.Errorf("%w: want [n, %d], got %v", ErrBadInput, mv.sig.Features, shapeOf(in))
	}
	if in.DType() != mv.sig.DType {
		return nil, fmt.Errorf("%w: want %v, got %v", ErrBadInput, mv.sig.DType, in.DType())
	}
	out, err := mv.sess.RunContext(ctx, map[string]*tensor.Tensor{mv.sig.InputName: in},
		[]string{mv.sig.OutputName}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func shapeOf(t *tensor.Tensor) tensor.Shape {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// acquire takes an in-flight ref; it fails once draining has started.
func (mv *ModelVersion) acquire() bool {
	mv.mu.Lock()
	defer mv.mu.Unlock()
	if mv.draining {
		return false
	}
	mv.inflight++
	return true
}

// release drops an in-flight ref, completing a drain at zero.
func (mv *ModelVersion) release() {
	mv.mu.Lock()
	mv.inflight--
	done := mv.draining && mv.inflight == 0
	mv.mu.Unlock()
	if done {
		close(mv.drained)
	}
}

// startDrain stops new acquires; Drained fires once in-flight work ends.
func (mv *ModelVersion) startDrain() {
	mv.mu.Lock()
	if mv.draining {
		mv.mu.Unlock()
		return
	}
	mv.draining = true
	done := mv.inflight == 0
	mv.mu.Unlock()
	if done {
		close(mv.drained)
	}
}

// Drained is closed once the version is retired and idle.
func (mv *ModelVersion) Drained() <-chan struct{} { return mv.drained }

// Stats is one model's request-outcome counters (all atomically updated).
type Stats struct {
	rows, batches, batchedRows atomic.Int64
	maxBatch                   atomic.Int64
	rejected, expired          atomic.Int64
	errs, swaps                atomic.Int64
}

func (s *Stats) recordBatch(n int) {
	s.batches.Add(1)
	s.rows.Add(int64(n))
	if n > 1 {
		s.batchedRows.Add(int64(n))
	}
	for {
		cur := s.maxBatch.Load()
		if int64(n) <= cur || s.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// StatsSnapshot is the JSON form served by /statsz and the ServingStats RPC.
type StatsSnapshot struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	State   string `json:"state"`
	// Rows is the number of rows predicted; Batches the number of session
	// runs they were coalesced into. MeanBatch = Rows/Batches is the
	// micro-batcher's achieved coalescing; BatchedRows counts rows that
	// shared a run with at least one other row.
	Rows        int64   `json:"rows"`
	Batches     int64   `json:"batches"`
	BatchedRows int64   `json:"batched_rows"`
	MeanBatch   float64 `json:"mean_batch"`
	MaxBatch    int64   `json:"max_batch"`
	Rejected    int64   `json:"rejected"`
	Expired     int64   `json:"expired"`
	Errors      int64   `json:"errors"`
	Swaps       int64   `json:"swaps"`
	Pending     int     `json:"pending"`
}

// ModelStatus is the /v1/models view of one model.
type ModelStatus struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	State   string `json:"state"`
	Ready   bool   `json:"ready"`
}
