package cg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/tensor"
)

// laplacian1D is the 1-D Laplacian shifted by diag−2 on its diagonal:
// diag on the diagonal, −1 beside it. For diag > 2 it is SPD.
func laplacian1D(n int, diag float64) *tensor.Tensor {
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

// f64Hash is the sha256 of v's little-endian bytes.
func f64Hash(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSolveGolden pins the bits of one CG solve in RunReal and RunCluster
// alike. RunCluster moves A, the scalars and X through encoded run frames
// between tasks, so any change to the tensor encoding, the collectives'
// fold order or the kernels that alters a single bit of X fails here.
func TestSolveGolden(t *testing.T) {
	const (
		wantIters = 141
		wantHash  = "60d87df8ed213ee25f11bbdc9282a0c685bf882f260712c730a4689c3c44c4ea"
	)
	cfg := Config{N: 256, Workers: 2, MaxIters: 500, Tol: 1e-9}
	a := laplacian1D(cfg.N, 2.0225)
	b := tensor.New(tensor.Float64, cfg.N)
	for i := range b.F64() {
		b.F64()[i] = math.Sin(float64(i+1) * 0.37)
	}

	local, err := RunReal(cfg, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cluster.StartLocal(map[string]int{"worker": cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()
	dist, err := RunCluster(cfg, a, b, peers, ClusterOptions{HealthWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*RealResult{"RunReal": local, "RunCluster": dist} {
		if h := f64Hash(r.X.F64()); r.Iters != wantIters || h != wantHash {
			t.Errorf("%s: %d iterations, X sha256 %s; want %d, %s", name, r.Iters, h, wantIters, wantHash)
		}
	}
}
