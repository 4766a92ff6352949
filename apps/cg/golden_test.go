package cg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"tfhpc/internal/cluster"
	"tfhpc/internal/cluster/clustertest"
	"tfhpc/internal/tensor"
)

// f64Hash is the sha256 of v's little-endian bytes.
func f64Hash(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenProblem is the solve TestSolveGolden pins: the documented test
// problem at N = 256 on 2 workers, with b_i = sin(0.37·(i+1)).
func goldenProblem() (Config, *tensor.Tensor, *tensor.Tensor) {
	cfg := Config{N: 256, Workers: 2, MaxIters: 500, Tol: 1e-9}
	b := tensor.New(tensor.Float64, cfg.N)
	for i := range b.F64() {
		b.F64()[i] = math.Sin(float64(i+1) * 0.37)
	}
	return cfg, Laplacian1D(cfg.N, LaplacianDiag), b
}

// The golden solve's iteration count and X.
const (
	goldenIters = 141
	goldenHash  = "60d87df8ed213ee25f11bbdc9282a0c685bf882f260712c730a4689c3c44c4ea"
)

// localSolve runs RunCluster over a cluster of tasks started in this
// process for the call.
func localSolve(cfg Config, a, b *tensor.Tensor, opts RealOptions) (r *RealResult, err error) {
	err = cluster.RunLocal(cfg.Workers, func(peers *cluster.Peers) error {
		r, err = RunCluster(cfg, a, b, peers, ClusterOptions{RealOptions: opts})
		return err
	})
	return r, err
}

// TestSolveGolden pins the bits of one CG solve three ways: RunReal;
// RunCluster over tasks in this process, which runs each worker's graph in
// the driver's session against its task's resources; and RunCluster under
// TFHPC_NO_SHM=1, which runs it as a partition on each task and moves A,
// the scalars, X and every collective chunk through the tensor codec. Any
// change to that codec, the collectives' fold order or the kernels that
// alters one bit of X fails here. RunReal must leave nothing behind, after
// a solve and after a resume that fails: no goroutine it started, and no
// task published in this process.
func TestSolveGolden(t *testing.T) {
	t.Setenv("TFHPC_NO_SHM", "")
	cfg, a, b := goldenProblem()
	check := func(name string, r *RealResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h := f64Hash(r.X.F64()); r.Iters != goldenIters || h != goldenHash {
			t.Errorf("%s: %d iterations, X sha256 %s; want %d, %s", name, r.Iters, h, goldenIters, goldenHash)
		}
	}
	r, err := RunReal(cfg, a, b, RealOptions{})
	check("RunReal", r, err)
	r, err = localSolve(cfg, a, b, RealOptions{})
	check("RunCluster", r, err)

	base := runtime.NumGoroutine()
	ckpt := filepath.Join(t.TempDir(), "cg.ckpt")
	for _, opts := range []RealOptions{
		{CheckpointPath: ckpt, CheckpointEvery: 50},
		{CheckpointPath: ckpt + ".missing", Resume: true},
	} {
		if _, err := RunReal(cfg, a, b, opts); (err != nil) != opts.Resume {
			t.Fatalf("RunReal(%+v): error %v", opts, err)
		}
		clustertest.CheckNothingLeft(t, fmt.Sprintf("RunReal(%+v)", opts), base)
	}

	t.Setenv("TFHPC_NO_SHM", "1")
	r, err = localSolve(cfg, a, b, RealOptions{})
	check("RunCluster over partitions", r, err)
}

// A solve stopped at iteration 100, with checkpoints every 30 on the way,
// and resumed from its checkpoint file takes the uninterrupted solve's
// iterations and gives its X to the bit, with the workers' graphs in the
// driver's session and, under TFHPC_NO_SHM=1, as partitions on the tasks.
func TestResumeMatchesUninterruptedSolve(t *testing.T) {
	cfg, a, b := goldenProblem()
	for _, noShm := range []string{"", "1"} {
		t.Setenv("TFHPC_NO_SHM", noShm)
		ckpt := filepath.Join(t.TempDir(), "cg.ckpt")
		half := cfg
		half.MaxIters = 100
		if r, err := localSolve(half, a, b, RealOptions{CheckpointPath: ckpt, CheckpointEvery: 30}); err != nil || r.Iters != 100 {
			t.Fatalf("TFHPC_NO_SHM=%q: first half: %v", noShm, err)
		}
		r, err := localSolve(cfg, a, b, RealOptions{CheckpointPath: ckpt, Resume: true})
		if err != nil {
			t.Fatalf("TFHPC_NO_SHM=%q: resume: %v", noShm, err)
		}
		if h := f64Hash(r.X.F64()); r.Iters != goldenIters || h != goldenHash {
			t.Errorf("TFHPC_NO_SHM=%q: resumed solve: %d iterations, X sha256 %s; want %d, %s", noShm, r.Iters, h, goldenIters, goldenHash)
		}
	}
}
