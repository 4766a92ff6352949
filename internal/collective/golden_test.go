package collective_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"tfhpc/internal/collective"
	"tfhpc/internal/tensor"
)

// ringGolden pins the bits of the ring reductions: sha256 of every rank's
// output, in rank order, as little-endian element bytes. The inputs mix
// magnitudes over twelve decades, so a change in the order any element is
// folded in changes the hash.
var ringGolden = map[string]string{
	"allreduce/p2/float32":     "657a710bbd70bd31468e6c5945060edeac9653fd234cc52560d9d9b86390fd92",
	"allreduce/p2/float64":     "bc571b553822f9e72a50327f333289575f5996ec129b1eda29f4831beeeb50c2",
	"allreduce/p3/float32":     "fd8e25de9f76f58750b5cc75d3235a97223885919a4a52735e396f2353cef85d",
	"allreduce/p3/float64":     "b5551fb42e9a55791355a66074a088d73547efeed42be3538a326373bdf8e0ca",
	"allreduce/p4/float32":     "2c139d5754ff7077f0fcf0b192dadfe395c78391e4e7fdb69014c5b8e4309f6d",
	"allreduce/p4/float64":     "6dae3110e24ea68a8fd1cc2ba470e041ea341a9e2926dc6e5d30e15aed1a46b0",
	"allreduce/p5/float32":     "7b689866e4fedc5ad8953617b6976a1af9996f124701fe68406778415337a62d",
	"allreduce/p5/float64":     "ab515fc7643887955820f5805321513820f929403dbe66b72ae84158c81b4653",
	"reducescatter/p2/float32": "ba27534ef1775e78c1294fa63220116fd86f367875e3523e6fcb6b6f90d480df",
	"reducescatter/p2/float64": "c031304186c72e4911d3b13732ab56b9fde33e5438cfaf163b33a9d65d3e2445",
	"reducescatter/p3/float32": "532dc2232baa91ce71daecb77d62d64af7a085269be328a43cd0dfe980064c01",
	"reducescatter/p3/float64": "8044a2120ebf5aea2f131833ae5a0475a0fb165b8e423342d3dee9bcf89f5d6f",
	"reducescatter/p4/float32": "49e0ba4b39503c3044b8c2b438a8dd111274f74ad8bd957b5258e5bbee8b79f1",
	"reducescatter/p4/float64": "389bec33c0194c48fe53adf49d9dc8b92708e100561c15a23c5a59d2d6ae8dbd",
	"reducescatter/p5/float32": "1495598c4583edf199bd9b9f5d4bdd7d92f62fffed0ce9d53cfc187a59f3c13c",
	"reducescatter/p5/float64": "58bf2f406bc462cb581f52f6bc6504cc50eb38d5c6c4f9c185f40ab6fa2416d4",
}

// orderSensitiveVec is n values of random sign and mantissa scaled by
// 10^[-6, 6): their sums round differently in different fold orders.
func orderSensitiveVec(dt tensor.DType, seed uint64, n int) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	out := tensor.New(dt, n)
	for i := 0; i < n; i++ {
		v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(12)-6))
		if dt == tensor.Float32 {
			out.F32()[i] = float32(v)
		} else {
			out.F64()[i] = v
		}
	}
	return out
}

func hashOutputs(outs []*tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range outs {
		switch o.DType() {
		case tensor.Float32:
			for _, v := range o.F32() {
				binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
				h.Write(b[:4])
			}
		case tensor.Float64:
			for _, v := range o.F64() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRingReductionGolden: the forced-ring AllReduce and ReduceScatter
// give the pinned bits at p = 2..5, f32 and f64, with segments of several
// chunks each. For p ≥ 3 the ring's fold order differs from the serial
// reference's, and the inputs are chosen so that shows in the bits.
func TestRingReductionGolden(t *testing.T) {
	const n = 1001
	for p := 2; p <= 5; p++ {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64} {
			ins := make([]*tensor.Tensor, p)
			for r := range ins {
				ins[r] = orderSensitiveVec(dt, uint64(100*p+r), n)
			}
			// 64-byte chunks: 8..16 elements, so every segment of ~n/p
			// elements spans a dozen chunks or more.
			groups := collective.NewLoopbackGroups(p, collective.Options{ChunkBytes: 64, Algorithm: collective.AlgoRing})
			ar := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
				return g.AllReduce("golden/ar", ins[g.Rank()], collective.OpSum)
			})
			rs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
				return g.ReduceScatter("golden/rs", ins[g.Rank()], collective.OpSum)
			})
			if p >= 3 {
				naive := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
					return g.NaiveAllReduce("golden/naive", ins[g.Rank()], collective.OpSum)
				})
				if ar[0].Equal(naive[0]) {
					t.Fatalf("p%d %v: ring sum equals the serial one; inputs do not pin the fold order", p, dt)
				}
			}
			for name, outs := range map[string][]*tensor.Tensor{"allreduce": ar, "reducescatter": rs} {
				key := fmt.Sprintf("%s/p%d/%v", name, p, dt)
				if got := hashOutputs(outs); got != ringGolden[key] {
					t.Errorf("%s: sha256 %s, want %s", key, got, ringGolden[key])
				}
			}
		}
	}
}
