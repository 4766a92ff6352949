package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tfhpc/internal/fft"
)

// TestTransformGolden pins the bits of one pipeline transform X, keyed by
// the butterfly kernel (fft.KernelName): the AVX kernel fuses multiply-adds
// where the portable one rounds each product. CI's portable-kernels step
// runs the portable row. A change to the plans, the kernels, the tile
// round trip or the merge that alters one bit of X fails here.
func TestTransformGolden(t *testing.T) {
	want := map[string]string{
		"avx-fma":     "1b6ee1a2794ec3b75fd99ba0c8a4aa61846240a66dc862586e7a84c12cd063fb",
		"portable-go": "2f40223d1ec24e71704a1cc3dfea079ad05b47492d7f9a39737547ee7ba9ba6d",
	}
	cfg := Config{N: 1 << 14, Tiles: 8, Workers: 2}
	res, err := RunReal(t.TempDir(), cfg, randSignal(11, cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16*cfg.N)
	for _, x := range res.X {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(x)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(x)))
	}
	sum := sha256.Sum256(buf)
	if h := hex.EncodeToString(sum[:]); h != want[fft.KernelName()] {
		t.Errorf("kernel %s: X sha256 %s, want %s", fft.KernelName(), h, want[fft.KernelName()])
	}
}
