package matmul

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tfhpc/internal/gemm"
	"tfhpc/internal/tensor"
)

// TestProductGolden pins the bits of one pipeline product C. C's bits
// depend on the sgemm kernel class: the AVX-512 and AVX2 kernels fuse
// multiply-adds and agree bit for bit (FuzzGemm32Kernels), the portable
// kernel rounds each product, so the hash is keyed by class. CI's
// portable-kernels step runs the second row.
func TestProductGolden(t *testing.T) {
	want := map[bool]string{ // by "the kernel fuses multiply-adds"
		true:  "3497042f13a8c8c733f68b880e49dc327b8d0dc10a45e43b278038e5ab368155",
		false: "4075426667381ea7d71e21622eec4a66427363a1b45b601613900fa80b3c0d61",
	}
	cfg := Config{N: 256, Tile: 128, Workers: 2, Reducers: 2}
	a := tensor.RandomUniform(tensor.Float32, 7, cfg.N, cfg.N)
	b := tensor.RandomUniform(tensor.Float32, 8, cfg.N, cfg.N)
	res, err := RunReal(t.TempDir(), cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4*cfg.N*cfg.N)
	for _, x := range res.C.F32() {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	sum := sha256.Sum256(buf)
	fma := gemm.KernelName() != "portable-go"
	if h := hex.EncodeToString(sum[:]); h != want[fma] {
		t.Errorf("kernel %s: C sha256 %s, want %s", gemm.KernelName(), h, want[fma])
	}
}
