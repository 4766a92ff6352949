package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"tfhpc/internal/fft"
	"tfhpc/internal/hw"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

func randSignal(seed uint64, n int) []complex128 {
	r := tensor.NewRNG(seed)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{N: 1024, Tiles: 8, Workers: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{N: 1000, Tiles: 8, Workers: 1}, // N not power of two
		{N: 1024, Tiles: 3, Workers: 1}, // tiles not power of two
		{N: 8, Tiles: 16, Workers: 1},   // more tiles than samples
		{N: 1024, Tiles: 8, Workers: 0}, // no workers
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
}

// mergeTol bounds max|X−ref| / max|ref| of the merge against a
// whole-signal transform. Measured: at most 4.7e-16 over the power-of-two
// cases below, 1.3e-15 over the others (T=32, m=12), and 1.3e-15 at the
// benchmark's 2^22 points in 8 tiles; the bound leaves a decade above that.
const mergeTol = 1e-14

func maxRelDiff(got, want []complex128) float64 {
	var diff, scale float64
	for i, w := range want {
		diff = math.Max(diff, cmplx.Abs(got[i]-w))
		scale = math.Max(scale, cmplx.Abs(w))
	}
	return diff / scale
}

// splitTransform returns the transforms of the T stride-interleaved
// subsequences x[t], x[t+T], ... of x.
func splitTransform(x []complex128, T int, dft func([]complex128) []complex128) [][]complex128 {
	tiles := make([][]complex128, T)
	for t := range tiles {
		sub := make([]complex128, len(x)/T)
		for i := range sub {
			sub[i] = x[t+i*T]
		}
		tiles[t] = dft(sub)
	}
	return tiles
}

func forward(x []complex128) []complex128 {
	if err := fft.Forward(x); err != nil {
		panic(err) // power-of-two lengths only
	}
	return x
}

func naive(x []complex128) []complex128 { return ops.NaiveDFT(x, false) }

// checkMerge merges tiles out of place and checks the result against want,
// then merges again in place — each tile a window of the output buffer, in
// reversed window order — and requires the same bits.
func checkMerge(t *testing.T, tiles [][]complex128, want []complex128) {
	t.Helper()
	T, m := len(tiles), len(tiles[0])
	got := make([]complex128, T*m)
	if err := MergeInterleaved(got, tiles); err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(got, want); !(d <= mergeTol) {
		t.Fatalf("T=%d m=%d: merge off by %.3g relative (bound %g)", T, m, d, mergeTol)
	}
	flat := make([]complex128, T*m)
	windows := make([][]complex128, T)
	for i, tile := range tiles {
		windows[i] = flat[(T-1-i)*m : (T-i)*m]
		copy(windows[i], tile)
	}
	if err := MergeInterleaved(flat, windows); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if flat[i] != got[i] {
			t.Fatalf("T=%d m=%d: in-place merge differs at %d: %v vs %v", T, m, i, flat[i], got[i])
		}
	}
}

func TestMergeInterleavedMatchesFFT(t *testing.T) {
	for _, n := range []int{64, 1 << 12, 1 << 18} {
		x := randSignal(uint64(n), n)
		want := forward(append([]complex128(nil), x...))
		for _, T := range []int{1, 2, 4, 8, 16, 32} {
			checkMerge(t, splitTransform(x, T, forward), want)
		}
	}
}

// TestMergeInterleavedNonPowerOfTwoTiles merges tile lengths no engine plan
// exists for: the combine holds for any equal tile length.
func TestMergeInterleavedNonPowerOfTwoTiles(t *testing.T) {
	for _, m := range []int{1, 3, 5, 12} {
		for _, T := range []int{1, 2, 4, 8, 16, 32} {
			x := randSignal(uint64(13*m+T), T*m)
			checkMerge(t, splitTransform(x, T, naive), naive(x))
		}
	}
}

func TestMergeInterleavedErrors(t *testing.T) {
	if err := MergeInterleaved(nil, nil); err == nil {
		t.Fatal("empty tile list should error")
	}
	if err := MergeInterleaved(make([]complex128, 0), make([][]complex128, 3)); err == nil {
		t.Fatal("non power-of-two tile count should error")
	}
	bad := [][]complex128{make([]complex128, 4), make([]complex128, 8)}
	if err := MergeInterleaved(make([]complex128, 12), bad); err == nil {
		t.Fatal("ragged tiles should error")
	}
	good := [][]complex128{make([]complex128, 4), make([]complex128, 4)}
	if err := MergeInterleaved(make([]complex128, 6), good); err == nil {
		t.Fatal("short output should error")
	}
}

// The headline correctness property: the full distributed pipeline equals a
// direct FFT of the signal — including when workers outnumber tiles, so
// some own none.
func TestRealPipelineMatchesDirectFFT(t *testing.T) {
	for _, cfg := range []Config{
		{N: 1 << 12, Tiles: 8, Workers: 3},
		{N: 1 << 10, Tiles: 2, Workers: 5},
	} {
		x := randSignal(42, cfg.N)
		res, err := RunReal(t.TempDir(), cfg, x)
		if err != nil {
			t.Fatal(err)
		}
		want := forward(append([]complex128(nil), x...))
		if d := maxRelDiff(res.X, want); !(d <= mergeTol) {
			t.Fatalf("%+v: pipeline off by %.3g relative", cfg, d)
		}
		if res.CollectSeconds <= 0 || res.Gflops <= 0 {
			t.Fatalf("implausible timing: %+v", res)
		}
	}
}

func TestRealPipelineSingleWorker(t *testing.T) {
	cfg := Config{N: 256, Tiles: 4, Workers: 1}
	x := randSignal(7, cfg.N)
	res, err := RunReal(t.TempDir(), cfg, x)
	if err != nil {
		t.Fatal(err)
	}
	want := forward(append([]complex128(nil), x...))
	if d := maxRelDiff(res.X, want); !(d <= mergeTol) {
		t.Fatalf("single-worker pipeline off by %.3g relative", d)
	}
}

func TestRealPipelineSignalLengthMismatch(t *testing.T) {
	if _, err := RunReal(t.TempDir(), Config{N: 64, Tiles: 4, Workers: 1},
		randSignal(1, 32)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSimScalingShape(t *testing.T) {
	run := func(node string, n, tiles, gpus int) float64 {
		res, err := RunSim(SimConfig{
			Cluster:  hw.Tegner,
			NodeType: hw.Tegner.NodeTypes[node],
			Config:   Config{N: n, Tiles: tiles, Workers: gpus},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gflops
	}
	// Paper: 1.6-1.8x from 2 to 4 GPUs, flattening from 4 to 8, on both
	// GPU models.
	for _, pf := range []struct {
		node     string
		n, tiles int
	}{
		{"k420", 1 << 29, 64},
		{"k80", 1 << 31, 128},
	} {
		g2 := run(pf.node, pf.n, pf.tiles, 2)
		g4 := run(pf.node, pf.n, pf.tiles, 4)
		g8 := run(pf.node, pf.n, pf.tiles, 8)
		if r := g4 / g2; r < 1.5 || r > 2.1 {
			t.Fatalf("%s 2->4 = %.2f, paper 1.6-1.8", pf.node, r)
		}
		if r := g8 / g4; r > 1.35 {
			t.Fatalf("%s 4->8 = %.2f, paper sees flattening", pf.node, r)
		}
	}
	// K80 runs the 4x bigger problem faster in absolute terms.
	if run("k80", 1<<31, 128, 8) <= run("k420", 1<<29, 64, 8) {
		t.Fatal("K80 should outperform K420")
	}
}

func TestSimMergeEstimateDominates(t *testing.T) {
	// Section VIII: the Python merge takes considerably longer than the
	// TensorFlow compute portion.
	res, err := RunSim(SimConfig{
		Cluster:  hw.Tegner,
		NodeType: hw.Tegner.NodeTypes["k80"],
		Config:   Config{N: 1 << 31, Tiles: 128, Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstMergeSeconds < res.Seconds {
		t.Fatalf("merge (%.1fs) should dominate collection (%.1fs)",
			res.EstMergeSeconds, res.Seconds)
	}
}

func TestSimRejectsOversizedTile(t *testing.T) {
	// One 2^26-sample complex128 tile is 1 GiB x2 > K420's 1 GB.
	_, err := RunSim(SimConfig{
		Cluster:  hw.Tegner,
		NodeType: hw.Tegner.NodeTypes["k420"],
		Config:   Config{N: 1 << 28, Tiles: 4, Workers: 2},
	})
	if err == nil {
		t.Fatal("oversized tile should be rejected")
	}
}

func TestFig11Curves(t *testing.T) {
	curves, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 3 {
			t.Fatalf("%s has %d points", c.Platform, len(c.Points))
		}
	}
}
