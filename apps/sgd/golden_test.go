package sgd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tfhpc/internal/cluster"
)

// TestTrainingGolden pins the bits of one training run in RunReal and
// RunCluster alike: the final weights' sha256 and the final loss. RunCluster
// moves every gradient through the collectives between tasks (stream edges
// under TFHPC_NO_SHM=1, which CI's network-edges step sets), so any change
// to the tensor encoding, the allreduce fold order or the kernels that
// alters one bit of the model fails here.
func TestTrainingGolden(t *testing.T) {
	const (
		wantHash = "5415d2954d73ef0f0f64359ad062675d26204a7e45cf3119d31aee64d01e8e2d"
		wantLoss = 0x3f68bf3807547457 // math.Float64bits of FinalLoss
	)
	cfg := baseConfig()
	cfg.Steps = 15
	local, err := RunReal(cfg)
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
	dist, err := RunCluster(cfg, peers, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"RunReal": local, "RunCluster": dist} {
		buf := make([]byte, 0, 8*cfg.Features)
		for _, x := range r.Weights.F64() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		sum := sha256.Sum256(buf)
		if h, loss := hex.EncodeToString(sum[:]), math.Float64bits(r.FinalLoss); !r.ReplicasEqual || h != wantHash || loss != wantLoss {
			t.Errorf("%s: replicas equal %v, weights sha256 %s, final loss bits %#x; want true, %s, %#x",
				name, r.ReplicasEqual, h, loss, wantHash, uint64(wantLoss))
		}
	}
}
