package matmul

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"tfhpc/internal/cluster"
	"tfhpc/internal/cluster/clustertest"
	"tfhpc/internal/gemm"
	"tfhpc/internal/tensor"
)

// TestProductGolden pins the bits of one pipeline product C three ways:
// RunReal; RunCluster over tasks in this process, which runs each worker's
// graph in the driver's session; and RunCluster under TFHPC_NO_SHM=1, which
// runs it as a partition on each task and moves every tile, partial and
// collective chunk through the tensor codec. C's bits depend on the sgemm
// kernel class: the AVX-512 and AVX2 kernels fuse multiply-adds and agree
// bit for bit (FuzzGemm32Kernels), the portable kernel rounds each product,
// so the hash is keyed by class. CI's portable-kernels step runs the second
// row. RunReal must leave no goroutine and no published task behind.
func TestProductGolden(t *testing.T) {
	t.Setenv("TFHPC_NO_SHM", "")
	want := map[bool]string{ // by "the kernel fuses multiply-adds"
		true:  "3497042f13a8c8c733f68b880e49dc327b8d0dc10a45e43b278038e5ab368155",
		false: "4075426667381ea7d71e21622eec4a66427363a1b45b601613900fa80b3c0d61",
	}
	cfg := Config{N: 256, Tile: 128, Workers: 2, Reducers: 2}
	a := tensor.RandomUniform(tensor.Float32, 7, cfg.N, cfg.N)
	b := tensor.RandomUniform(tensor.Float32, 8, cfg.N, cfg.N)
	check := func(name string, res *RealResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]byte, 0, 4*cfg.N*cfg.N)
		for _, x := range res.C.F32() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		sum := sha256.Sum256(buf)
		fma := gemm.KernelName() != "portable-go"
		if h := hex.EncodeToString(sum[:]); h != want[fma] {
			t.Errorf("%s, kernel %s: C sha256 %s, want %s", name, gemm.KernelName(), h, want[fma])
		}
	}
	// RunCluster over a job of its own name, in this process.
	local := func() (*RealResult, error) {
		lc, err := cluster.StartLocal(map[string]int{"mm": cfg.Workers})
		if err != nil {
			return nil, err
		}
		defer lc.Close()
		peers := cluster.NewPeers(lc.Spec())
		defer peers.Close()
		return RunCluster(t.TempDir(), cfg, a, b, peers, "mm")
	}

	res, err := RunReal(t.TempDir(), cfg, a, b)
	check("RunReal", res, err)
	base := runtime.NumGoroutine()
	res, err = RunReal(t.TempDir(), cfg, a, b)
	check("RunReal", res, err)
	clustertest.CheckNothingLeft(t, "RunReal", base)
	res, err = local()
	check("RunCluster", res, err)
	t.Setenv("TFHPC_NO_SHM", "1")
	res, err = local()
	check("RunCluster over partitions", res, err)
}
