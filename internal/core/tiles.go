package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"tfhpc/internal/gemm"
	"tfhpc/internal/npy"
	"tfhpc/internal/tensor"
)

// TileStore manages the .npy tile files of one square matrix, named
// Tile_<prefix>_<i>_<j>.npy as in Fig. 4 of the paper.
type TileStore struct {
	Dir         string
	Prefix      string
	N           int // full matrix dimension
	Tile        int // tile dimension
	TilesPerDim int
}

// SaveMatrixTiles splits an N×N matrix into tile×tile blocks and writes one
// .npy file per block (the paper's pre-processing step), reading the matrix
// once through saveTiles.
func SaveMatrixTiles(dir, prefix string, mat *tensor.Tensor, tile int) (*TileStore, error) {
	if mat.Rank() != 2 || mat.Shape()[0] != mat.Shape()[1] {
		return nil, fmt.Errorf("core: need a square matrix, got %v", mat.Shape())
	}
	n := mat.Shape()[0]
	if tile <= 0 || n%tile != 0 {
		return nil, fmt.Errorf("core: tile %d must divide matrix dimension %d", tile, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ts := &TileStore{Dir: dir, Prefix: prefix, N: n, Tile: tile, TilesPerDim: n / tile}
	paths := make([]string, 0, ts.TilesPerDim*ts.TilesPerDim)
	for ti := 0; ti < ts.TilesPerDim; ti++ {
		for tj := 0; tj < ts.TilesPerDim; tj++ {
			paths = append(paths, ts.Path(ti, tj))
		}
	}
	shape := tensor.Shape{tile, tile}
	var err error
	switch mat.DType() {
	case tensor.Float32:
		err = saveTiles(paths, tensor.Float32, shape, mat.F32(), n, tile, tile)
	case tensor.Float64:
		err = saveTiles(paths, tensor.Float64, shape, mat.F64(), n, tile, tile)
	default:
		err = fmt.Errorf("core: unsupported tile dtype %v", mat.DType())
	}
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// Path returns the file name of tile (i, j).
func (ts *TileStore) Path(i, j int) string {
	return filepath.Join(ts.Dir, fmt.Sprintf("Tile_%s_%d_%d.npy", ts.Prefix, i, j))
}

// LoadTile reads tile (i, j) back from disk.
func (ts *TileStore) LoadTile(i, j int) (*tensor.Tensor, error) {
	if i < 0 || i >= ts.TilesPerDim || j < 0 || j >= ts.TilesPerDim {
		return nil, fmt.Errorf("core: tile (%d,%d) out of %d per dim", i, j, ts.TilesPerDim)
	}
	return npy.Load(ts.Path(i, j))
}

// Assemble reconstructs the full matrix from tiles (test/verification aid).
func (ts *TileStore) Assemble(dt tensor.DType) (*tensor.Tensor, error) {
	out := tensor.New(dt, ts.N, ts.N)
	for ti := 0; ti < ts.TilesPerDim; ti++ {
		for tj := 0; tj < ts.TilesPerDim; tj++ {
			block, err := ts.LoadTile(ti, tj)
			if err != nil {
				return nil, err
			}
			switch dt {
			case tensor.Float32:
				src, dst := block.F32(), out.F32()
				for r := 0; r < ts.Tile; r++ {
					copy(dst[(ti*ts.Tile+r)*ts.N+tj*ts.Tile:(ti*ts.Tile+r)*ts.N+tj*ts.Tile+ts.Tile],
						src[r*ts.Tile:(r+1)*ts.Tile])
				}
			case tensor.Float64:
				src, dst := block.F64(), out.F64()
				for r := 0; r < ts.Tile; r++ {
					copy(dst[(ti*ts.Tile+r)*ts.N+tj*ts.Tile:(ti*ts.Tile+r)*ts.N+tj*ts.Tile+ts.Tile],
						src[r*ts.Tile:(r+1)*ts.Tile])
				}
			default:
				return nil, fmt.Errorf("core: unsupported dtype %v", dt)
			}
		}
	}
	return out, nil
}

// SaveInterleavedTiles splits a length-N complex vector into `tiles`
// interleaved chunks (chunk t holds elements t, t+tiles, t+2·tiles, ...) and
// writes each as a .npy file — the FFT application's decimation-in-time
// layout (Fig. 6). Viewed as a row-major (N/tiles)×tiles matrix, chunk t is
// column t, so saveTiles writes it in one pass over the vector.
func SaveInterleavedTiles(dir, prefix string, vec []complex128, tiles int) ([]string, error) {
	n := len(vec)
	if tiles <= 0 || n%tiles != 0 {
		return nil, fmt.Errorf("core: %d tiles must divide vector length %d", tiles, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	chunk := n / tiles
	paths := make([]string, tiles)
	for t := range paths {
		paths[t] = filepath.Join(dir, fmt.Sprintf("Tile_%s_%d.npy", prefix, t))
	}
	if err := saveTiles(paths, tensor.Complex128, tensor.Shape{chunk}, vec, tiles, chunk, 1); err != nil {
		return nil, err
	}
	return paths, nil
}

// tileBlockBytes is how much of the source one block of saveTiles covers.
// It bounds the staging buffer and keeps a block cache-resident while its
// columns are encoded one tile at a time. BenchmarkSaveInterleavedTiles
// (2^22 c128 samples, 8 tiles, 2 vCPU Xeon, three runs each) measured
// 32–33 ms per save at 64 KiB (8× the WriteAt calls), 25–26 ms at 256 and
// 512 KiB, 27–29 ms at 1 MiB and 37–39 ms at 4 MiB, where a block no
// longer stays in cache between its tiles' passes.
const tileBlockBytes = 512 << 10

// tileElem is an element type the tile writers encode.
type tileElem interface{ float32 | float64 | complex128 }

// saveTiles writes the row-major matrix src, cols elements per row, as
// tile files of tileRows×w elements in row-major order: the w-wide column
// block j of row band b (rows [b·tileRows, (b+1)·tileRows)) goes to
// paths[b·(cols/w)+j], behind the npy header of dtype dt and shape. Every
// file is then byte-identical to npy.Save of that block.
//
// src is read once, in blocks of whole rows that never straddle a band.
// The blocks are spread over the gemm pool; a block encodes each tile's
// share into one staging buffer and writes it at its file offset, so no
// tile is assembled in memory and no two writers touch the same bytes.
// Existing files are cut to size and overwritten in place rather than
// truncated to zero on open: rewriting the same tiles, as every fft
// repetition does, then reuses their cached pages (93 → 26 ms per
// BenchmarkSaveInterleavedTiles save).
func saveTiles[T tileElem](paths []string, dt tensor.DType, shape tensor.Shape, src []T, cols, tileRows, w int) (err error) {
	hdr, err := npy.Header(dt, shape)
	if err != nil {
		return err
	}
	size := dt.Size()
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, p := range paths {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		files = append(files, f)
		if err := f.Truncate(int64(len(hdr) + shape.NumElements()*size)); err != nil {
			return err
		}
		if _, err := f.WriteAt(hdr, 0); err != nil {
			return err
		}
	}
	if len(src) == 0 {
		return nil
	}

	perBand := cols / w // tiles per band
	blockRows := max(1, min(tileRows, tileBlockBytes/(cols*size)))
	blocks := (tileRows + blockRows - 1) / blockRows // per band
	bands := len(src) / (cols * tileRows)
	var mu sync.Mutex
	gemm.ParallelFor(bands*blocks, 1, func(lo, hi int) {
		buf := make([]byte, blockRows*w*size)
		for k := lo; k < hi; k++ {
			band := k / blocks
			r0 := (k % blocks) * blockRows // first row, within the band
			b := buf[:min(blockRows, tileRows-r0)*w*size]
			first := (band*tileRows + r0) * cols
			off := int64(len(hdr) + r0*w*size)
			for j := 0; j < perBand; j++ {
				putRows(b, src[first+j*w:], len(b)/(w*size), w, cols)
				if _, werr := files[band*perBand+j].WriteAt(b, off); werr != nil {
					mu.Lock()
					err = cmp.Or(err, werr)
					mu.Unlock()
					return
				}
			}
		}
	})
	return err
}

// putRows encodes rows×w elements of src, row r starting at src[r·stride],
// into dst as little-endian npy payload bytes.
func putRows[T tileElem](dst []byte, src []T, rows, w, stride int) {
	o := 0
	switch s := any(src).(type) {
	case []float32:
		for r := 0; r < rows; r++ {
			for _, v := range s[r*stride : r*stride+w] {
				binary.LittleEndian.PutUint32(dst[o:o+4], math.Float32bits(v))
				o += 4
			}
		}
	case []float64:
		for r := 0; r < rows; r++ {
			for _, v := range s[r*stride : r*stride+w] {
				binary.LittleEndian.PutUint64(dst[o:o+8], math.Float64bits(v))
				o += 8
			}
		}
	case []complex128:
		for r := 0; r < rows; r++ {
			for _, v := range s[r*stride : r*stride+w] {
				b := dst[o : o+16 : o+16]
				binary.LittleEndian.PutUint64(b, math.Float64bits(real(v)))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
				o += 16
			}
		}
	}
}
