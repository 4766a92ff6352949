// Package cg implements the paper's distributed Conjugate Gradient solver:
// the SPD matrix is split into row blocks owned by workers (loaded once and
// reused every iteration, for data locality), the matrix-vector product and
// dot products are computed per block, and every synchronisation — the
// allgather of the search direction and both scalar reductions — is a ring
// collective in the worker graph (internal/collective, the Horovod-style
// engine Section VIII of the paper points to, replacing the queue-based
// reduction services of Fig. 5). Arithmetic is double precision, as in the
// paper, and the solver supports checkpoint-restart.
//
// There is one driver, RunCluster: each worker is a cluster task. RunReal
// starts those tasks in this process and runs RunCluster over them, so an
// in-process solve and one over running tfserver tasks take the same steps
// and give the same bits. Laplacian1D builds the test problem the tests,
// tfcg and the examples solve.
package cg

import (
	"fmt"
	"math"

	"tfhpc/internal/tensor"
)

// Config describes one CG problem instance.
type Config struct {
	N       int // matrix dimension
	Workers int // row-block owners (one GPU each in the paper)
	// MaxIters bounds the iteration count; the paper's experiments run 500.
	MaxIters int
	// Tol stops early when ‖r‖ < Tol (0 disables, running MaxIters always).
	Tol float64
}

// Validate checks the decomposition.
func (c Config) Validate() error {
	if c.N <= 0 || c.Workers <= 0 {
		return fmt.Errorf("cg: need positive N and workers")
	}
	if c.N%c.Workers != 0 {
		return fmt.Errorf("cg: workers %d must divide N %d", c.Workers, c.N)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("cg: need positive MaxIters")
	}
	return nil
}

// RowsPerWorker returns the block height.
func (c Config) RowsPerWorker() int { return c.N / c.Workers }

// converged reports whether a residual with ‖r‖² = rr ends the solve. An
// exactly-zero residual is an exact solution, whatever Tol says: one more
// iteration would take α = 0/0.
func (c Config) converged(rr float64) bool {
	return rr == 0 || c.Tol > 0 && math.Sqrt(rr) < c.Tol
}

// LaplacianDiag is the diagonal of the documented test problem,
// Laplacian1D(n, LaplacianDiag): shifted by 0.0225, its condition number is
// about 180 at any n.
const LaplacianDiag = 2.0225

// Laplacian1D builds the 1-D Laplacian shifted by diag−2 on its diagonal:
// diag on the diagonal, −1 beside it, SPD for diag > 2. Its condition
// number is about 4/(diag−2), so the iteration count follows the shift and
// not n: at LaplacianDiag CG takes 141 iterations to ‖r‖ < 1e-9 for n = 256
// from b_i = sin(0.37·(i+1)) (TestSolveGolden). The checkpoint cadence of a
// solve means something on it; SPDMatrix converges in 5 iterations.
func Laplacian1D(n int, diag float64) *tensor.Tensor {
	a := tensor.New(tensor.Float64, n, n)
	d := a.F64()
	for i := 0; i < n; i++ {
		d[i*n+i] = diag
		if i > 0 {
			d[i*n+i-1] = -1
		}
		if i+1 < n {
			d[i*n+i+1] = -1
		}
	}
	return a
}

// SPDMatrix builds a random symmetric positive-definite matrix:
// A = R + Rᵀ + 2N·I with R uniform in [0,1), which is strictly diagonally
// dominant and hence SPD, and so well conditioned that CG converges in a
// handful of iterations.
func SPDMatrix(n int, seed uint64) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	a := tensor.New(tensor.Float64, n, n)
	d := a.F64()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Float64()
			d[i*n+j] += v
			if i != j {
				d[j*n+i] += v
			}
		}
		d[i*n+i] += 2 * float64(n)
	}
	return a
}
