package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"tfhpc/internal/cluster"
	"tfhpc/internal/cluster/clustertest"
	"tfhpc/internal/fft"
)

// TestTransformGolden pins the bits of one pipeline transform X three ways:
// RunReal; RunCluster over tasks in this process, which runs each worker's
// graph in the driver's session; and RunCluster under TFHPC_NO_SHM=1, which
// runs it as a partition on each task and moves every tile and collective
// chunk through the tensor codec. The hash is keyed by the butterfly kernel
// (fft.KernelName): the AVX kernel fuses multiply-adds where the portable
// one rounds each product. CI's portable-kernels step runs the portable
// row. A change to the plans, the kernels, the tile round trip, the gathers
// or the merge that alters one bit of X fails here. RunReal must leave no
// goroutine and no published task behind.
func TestTransformGolden(t *testing.T) {
	t.Setenv("TFHPC_NO_SHM", "")
	want := map[string]string{
		"avx-fma":     "1b6ee1a2794ec3b75fd99ba0c8a4aa61846240a66dc862586e7a84c12cd063fb",
		"portable-go": "2f40223d1ec24e71704a1cc3dfea079ad05b47492d7f9a39737547ee7ba9ba6d",
	}
	cfg := Config{N: 1 << 14, Tiles: 8, Workers: 2}
	signal := randSignal(11, cfg.N)
	check := func(name string, res *RealResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]byte, 0, 16*cfg.N)
		for _, x := range res.X {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(x)))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(x)))
		}
		sum := sha256.Sum256(buf)
		if h := hex.EncodeToString(sum[:]); h != want[fft.KernelName()] {
			t.Errorf("%s, kernel %s: X sha256 %s, want %s", name, fft.KernelName(), h, want[fft.KernelName()])
		}
	}
	// RunCluster over a job of its own name, in this process.
	local := func() (*RealResult, error) {
		lc, err := cluster.StartLocal(map[string]int{"fft": cfg.Workers})
		if err != nil {
			return nil, err
		}
		defer lc.Close()
		peers := cluster.NewPeers(lc.Spec())
		defer peers.Close()
		return RunCluster(t.TempDir(), cfg, signal, peers, "fft")
	}

	res, err := RunReal(t.TempDir(), cfg, signal)
	check("RunReal", res, err)
	base := runtime.NumGoroutine()
	res, err = RunReal(t.TempDir(), cfg, signal)
	check("RunReal", res, err)
	clustertest.CheckNothingLeft(t, "RunReal", base)
	res, err = local()
	check("RunCluster", res, err)
	t.Setenv("TFHPC_NO_SHM", "1")
	res, err = local()
	check("RunCluster over partitions", res, err)
}
