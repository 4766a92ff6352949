package sgd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tfhpc/internal/cluster"
)

// TestTrainingGolden pins the bits of one training run in every driver and
// at every parameter-tensor split: the final weights' sha256 and the final
// loss. Splitting the weights changes the graph, not the math, so every row
// lands on the same bits. RunCluster and RunElasticCluster move every
// gradient through the collectives between tasks (stream edges under
// TFHPC_NO_SHM=1, which CI's network-edges step sets), so any change to the
// tensor encoding, the allreduce fold order or the kernels that alters one
// bit of the model fails here.
func TestTrainingGolden(t *testing.T) {
	const (
		wantHash = "5415d2954d73ef0f0f64359ad062675d26204a7e45cf3119d31aee64d01e8e2d"
		wantLoss = 0x3f68bf3807547457 // math.Float64bits of FinalLoss
	)
	// Every row runs on the same tasks: a task keeps a variable's shape
	// for its lifetime, so runs with different splits must name their
	// variables apart.
	lc, err := cluster.StartLocal(map[string]int{"worker": baseConfig().Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := cluster.NewPeers(lc.Spec())
	defer peers.Close()
	for _, row := range []struct {
		name    string
		tensors int
		fuse    bool
	}{
		{"T1", 1, false},
		{"T3", 3, false},
		{"T3_fused", 3, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Steps, cfg.ParamTensors, cfg.Fuse = 15, row.tensors, row.fuse
			local, err := RunReal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := RunCluster(cfg, peers, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			elastic, err := RunElasticCluster(cfg, peers, ClusterOptions{}, ElasticOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if elastic.Rebuilds != 1 || elastic.Resumes != 0 {
				t.Fatalf("fault-free elastic run had membership churn: %+v", elastic)
			}
			for name, r := range map[string]*Result{"RunReal": local, "RunCluster": dist, "RunElasticCluster": &elastic.Result} {
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
		})
	}
}
