package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tfhpc/internal/npy"
	"tfhpc/internal/tensor"
)

// sameBytes fails unless the file at path holds exactly what npy.Save
// writes for want.
func sameBytes(t *testing.T, path string, want *tensor.Tensor) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := npy.Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("%s: %d bytes differ from npy.Save's %d", filepath.Base(path), len(got), buf.Len())
	}
}

// TestInterleavedTilesMatchNpySave: every tile file is byte-identical to
// npy.Save of its strided slice, for tile counts that do and do not divide
// a block, and lengths below one block and not a multiple of it.
func TestInterleavedTilesMatchNpySave(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 8, 16} {
		blockRows := tileBlockBytes / (tiles * 16)
		for _, m := range []int{0, 5, 3*blockRows + 7} {
			t.Run(fmt.Sprintf("T%d/m%d", tiles, m), func(t *testing.T) {
				dir := t.TempDir()
				vec := make([]complex128, tiles*m)
				rng := tensor.NewRNG(uint64(tiles*1000 + m))
				for i := range vec {
					vec[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				}
				paths, err := SaveInterleavedTiles(dir, "x", vec, tiles)
				if err != nil {
					t.Fatal(err)
				}
				for ti, p := range paths {
					strided := make([]complex128, m)
					for i := range strided {
						strided[i] = vec[ti+i*tiles]
					}
					sameBytes(t, p, tensor.FromC128(tensor.Shape{m}, strided))
				}
			})
		}
	}
}

// TestInterleavedTilesOverwrite: saving over existing tiles, longer or
// shorter, leaves exactly the new files.
func TestInterleavedTilesOverwrite(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{64, 16, 40} {
		vec := make([]complex128, n)
		for i := range vec {
			vec[i] = complex(float64(n), float64(i))
		}
		paths, err := SaveInterleavedTiles(dir, "x", vec, 4)
		if err != nil {
			t.Fatal(err)
		}
		for ti, p := range paths {
			strided := make([]complex128, n/4)
			for i := range strided {
				strided[i] = vec[ti+i*4]
			}
			sameBytes(t, p, tensor.FromC128(tensor.Shape{n / 4}, strided))
		}
	}
}

// TestMatrixTilesMatchNpySave: every matrix tile file is byte-identical to
// npy.Save of the block it holds — including a tile whose row count is not
// a multiple of the writer's block, so a band ends in a short block.
func TestMatrixTilesMatchNpySave(t *testing.T) {
	cases := []struct {
		dt      tensor.DType
		n, tile int
	}{
		{tensor.Float64, 16, 4},
		{tensor.Float32, 1536, 768}, // 6 KiB rows: 768 = 9 blocks of 85 rows + 3
		{tensor.Float64, 640, 320},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/n%d/t%d", c.dt, c.n, c.tile), func(t *testing.T) {
			dir := t.TempDir()
			mat := tensor.RandomUniform(c.dt, uint64(c.n), c.n, c.n)
			ts, err := SaveMatrixTiles(dir, "M", mat, c.tile)
			if err != nil {
				t.Fatal(err)
			}
			for ti := 0; ti < ts.TilesPerDim; ti++ {
				for tj := 0; tj < ts.TilesPerDim; tj++ {
					block := tensor.New(c.dt, c.tile, c.tile)
					for r := 0; r < c.tile; r++ {
						lo := (ti*c.tile+r)*c.n + tj*c.tile
						if c.dt == tensor.Float32 {
							copy(block.F32()[r*c.tile:], mat.F32()[lo:lo+c.tile])
						} else {
							copy(block.F64()[r*c.tile:], mat.F64()[lo:lo+c.tile])
						}
					}
					sameBytes(t, ts.Path(ti, tj), block)
				}
			}
		})
	}
}

// TestTileWritersReportUnwritableDirs: a directory that cannot be created,
// and a tile path that cannot be opened for writing, are errors.
func TestTileWritersReportUnwritableDirs(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	vec := make([]complex128, 64)
	if _, err := SaveInterleavedTiles(filepath.Join(file, "sub"), "x", vec, 4); err == nil {
		t.Fatal("directory below a regular file: no error")
	}
	if _, err := SaveMatrixTiles(filepath.Join(file, "sub"), "A", tensor.New(tensor.Float32, 8, 8), 4); err == nil {
		t.Fatal("matrix tiles below a regular file: no error")
	}
	// A directory squatting on a tile's name cannot be created as a file.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "Tile_x_2.npy"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveInterleavedTiles(dir, "x", vec, 4); err == nil {
		t.Fatal("tile path is a directory: no error")
	}
}

// BenchmarkSaveInterleavedTiles prices the fft workload's pre-processing:
// a 2^22-sample c128 signal written as 8 interleaved tiles.
func BenchmarkSaveInterleavedTiles(b *testing.B) {
	const n, tiles = 1 << 22, 8
	vec := make([]complex128, n)
	for i := range vec {
		vec[i] = complex(float64(i), -float64(i))
	}
	dir := b.TempDir()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SaveInterleavedTiles(dir, "x", vec, tiles); err != nil {
			b.Fatal(err)
		}
	}
}
