package core

import (
	"math"
	"path/filepath"
	"testing"

	"tfhpc/internal/hw"
	"tfhpc/internal/npy"
	"tfhpc/internal/tensor"
)

func TestPlacementTableI(t *testing.T) {
	cases := []struct {
		cluster   *hw.Cluster
		node      string
		gpus      int
		wantNodes int
	}{
		{hw.Tegner, "k420", 4, 4},     // 1 instance/node
		{hw.Tegner, "k80", 4, 2},      // 2 instances/node
		{hw.Kebnekaise, "k80", 16, 4}, // 4 instances/node
		{hw.Kebnekaise, "v100", 8, 4}, // 2 instances/node
	}
	for _, c := range cases {
		p, err := NewPlacement(c.cluster, c.cluster.NodeTypes[c.node], c.gpus)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumNodes != c.wantNodes {
			t.Errorf("%s/%s %d GPUs -> %d nodes, want %d",
				c.cluster.Name, c.node, c.gpus, p.NumNodes, c.wantNodes)
		}
	}
	// Kebnekaise K80: instances 0,1 on island 0; 2,3 on island 1 (Fig. 9).
	p, _ := NewPlacement(hw.Kebnekaise, hw.Kebnekaise.NodeTypes["k80"], 4)
	want := []int{0, 0, 1, 1}
	for i, isle := range p.IslandOf {
		if isle != want[i] {
			t.Fatalf("instance %d on island %d, want %d", i, isle, want[i])
		}
	}
	if _, err := NewPlacement(hw.Tegner, hw.Tegner.NodeTypes["k420"], 0); err == nil {
		t.Fatal("zero instances should error")
	}
}

func TestFlopFormulas(t *testing.T) {
	if got := MatMulFlops(4); got != 2*64-16 {
		t.Fatalf("MatMulFlops(4) = %v", got)
	}
	if got := CGFlops(100, 500); got != 500*2*100*100 {
		t.Fatalf("CGFlops = %v", got)
	}
	if got := FFTFlops(8); got != 5*8*3 {
		t.Fatalf("FFTFlops(8) = %v", got)
	}
	if Gflops(2e9, 2) != 1 {
		t.Fatal("Gflops wrong")
	}
	if Gflops(1, 0) != 0 {
		t.Fatal("Gflops zero-time guard")
	}
}

func TestSpeedup(t *testing.T) {
	pts := []ScalingPoint{{2, 100}, {4, 180}, {8, 300}}
	s, err := Speedup(pts, 2, 4)
	if err != nil || math.Abs(s-1.8) > 1e-12 {
		t.Fatalf("speedup = %v, %v", s, err)
	}
	if _, err := Speedup(pts, 2, 16); err == nil {
		t.Fatal("missing point should error")
	}
}

func TestTileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n, tile := 16, 4
	mat := tensor.RandomUniform(tensor.Float32, 5, n, n)
	ts, err := SaveMatrixTiles(dir, "A", mat, tile)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TilesPerDim != 4 {
		t.Fatalf("tiles per dim %d", ts.TilesPerDim)
	}
	back, err := ts.Assemble(tensor.Float32)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(mat) {
		t.Fatal("assemble(tiles) != original")
	}
	// Spot-check one tile's content.
	blk, err := ts.LoadTile(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if blk.F32()[0] != mat.F32()[(1*tile)*n+2*tile] {
		t.Fatal("tile origin wrong")
	}
	if _, err := ts.LoadTile(9, 0); err == nil {
		t.Fatal("out-of-range tile should error")
	}
	if _, err := SaveMatrixTiles(dir, "B", mat, 5); err == nil {
		t.Fatal("non-dividing tile should error")
	}
	if filepath.Base(ts.Path(1, 2)) != "Tile_A_1_2.npy" {
		t.Fatalf("tile name %q", ts.Path(1, 2))
	}
}

func TestInterleavedTilesLayout(t *testing.T) {
	dir := t.TempDir()
	n, tiles := 16, 4
	vec := make([]complex128, n)
	for i := range vec {
		vec[i] = complex(float64(i), 0)
	}
	paths, err := SaveInterleavedTiles(dir, "x", vec, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != tiles {
		t.Fatalf("paths %d", len(paths))
	}
	// Tile t must hold elements t, t+4, t+8, t+12.
	for tIdx, p := range paths {
		tt, err := loadC128(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tt {
			want := complex(float64(tIdx+i*tiles), 0)
			if v != want {
				t.Fatalf("tile %d[%d] = %v, want %v", tIdx, i, v, want)
			}
		}
	}
	if _, err := SaveInterleavedTiles(dir, "y", vec, 5); err == nil {
		t.Fatal("non-dividing tile count should error")
	}
}

func loadC128(path string) ([]complex128, error) {
	t, err := npy.Load(path)
	if err != nil {
		return nil, err
	}
	return t.C128(), nil
}
