// Package fft implements the paper's data-driven 1-D Cooley-Tukey FFT
// (Fig. 6): the input signal is split into interleaved tiles stored as .npy
// files; workers each transform their share of tiles on GPU — side by side,
// each tile on one core's in-cache engine path — the transformed tiles are
// gathered to one merging rank with ragged GatherV collectives (the
// replacement for the paper's merger queue — sim mode still prices that
// deployment), and the tiles are combined with twiddle factors on the host
// — the merge the paper runs serially in Python and excludes from its
// scaling figures, here one cache-blocked pass over the gathered tiles,
// in place, spread over the worker pool. Complex double precision
// throughout, as in the paper.
package fft

import (
	"fmt"
	"math/bits"

	"tfhpc/internal/fft"
	"tfhpc/internal/gemm"
)

// Config describes one FFT decomposition.
type Config struct {
	N       int // signal length, power of two
	Tiles   int // interleaved tiles, power of two dividing N
	Workers int
}

// Validate checks the decomposition.
func (c Config) Validate() error {
	if c.N <= 0 || c.N&(c.N-1) != 0 {
		return fmt.Errorf("fft: N=%d must be a positive power of two", c.N)
	}
	if c.Tiles <= 0 || c.Tiles&(c.Tiles-1) != 0 {
		return fmt.Errorf("fft: tiles=%d must be a positive power of two", c.Tiles)
	}
	if c.Tiles > c.N {
		return fmt.Errorf("fft: more tiles (%d) than samples (%d)", c.Tiles, c.N)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("fft: need at least one worker")
	}
	return nil
}

// TileLen is the per-tile sample count.
func (c Config) TileLen() int { return c.N / c.Tiles }

// TileBytes is the complex128 payload size of one tile.
func (c Config) TileBytes() int64 { return int64(c.TileLen()) * 16 }

// mergeBlock is the merge's cache block in elements: T rows of
// mergeBlock/T consecutive bins (32 KiB of complex128), plus as many
// in-block twiddles, stay in L1/L2 through the log₂T butterfly passes.
const mergeBlock = 1 << 11

// MergeInterleaved combines the FFTs of `tiles` stride-interleaved
// subsequences into dst, the FFT of the full signal, in one pass over
// memory. tiles[t] must be the transform of x[t], x[t+T], x[t+2T], ...
// where T = len(tiles) and every tile has the same length m; len(dst) must
// be n = T·m. With w_n = exp(−2πi/n), bin k of every tile feeds T output
// bins:
//
//	X[k + m·q] = Σ_t w_T^{t·q} · (w_n^{t·k} · G_t[k]),   k < m, q < T,
//
// a T-point DFT across the tiles of the twiddled G_t[k]. The merge walks k
// in blocks small enough that the T rows of a block stay in cache: it
// twiddles the rows on load, runs log₂T radix-2 butterfly passes over them
// in cache, the last one storing row q straight into dst[m·q + k]. That is
// one read of the tiles and one write of the result, the blocks spread over
// the shared worker pool, and the twiddles read from the engine's per-size
// table — no trigonometry per merge. The paper runs this merge serially in
// Python and leaves it out of Fig. 11 (Section VIII).
//
// A block reads its bins of every tile before it writes the same bins of
// dst, so dst may be the buffer the tiles live in, provided each tile is
// one whole window dst[s·m : (s+1)·m], in any order.
func MergeInterleaved(dst []complex128, tiles [][]complex128) error {
	T := len(tiles)
	if T == 0 || T&(T-1) != 0 {
		return fmt.Errorf("fft: tile count %d must be a power of two", T)
	}
	m := len(tiles[0])
	for t, tile := range tiles {
		if len(tile) != m {
			return fmt.Errorf("fft: tile %d has length %d, want %d", t, len(tile), m)
		}
	}
	n := T * m
	if len(dst) != n {
		return fmt.Errorf("fft: merge output has length %d, want %d", len(dst), n)
	}
	if T == 1 || m == 0 {
		copy(dst, tiles[0])
		return nil
	}
	// tw[j] = w_n^j for j < n/2; t·k < n, and the far half of the circle is
	// the near half negated.
	tw := fft.ForwardTwiddles(n)
	half := n / 2
	root := func(j int) complex128 {
		if j < half {
			return tw[j]
		}
		return -tw[j-half]
	}
	// w_n^{t·k} = w_n^{t·k0} · w_n^{t·j} for k = k0 + j: one table lookup
	// per row and block, times in-block twiddles that are the same for
	// every block.
	B := min(m, max(1, mergeBlock/T))
	inBlock := make([]complex128, T*B)
	for t := 0; t < T; t++ {
		for j := 0; j < B; j++ {
			inBlock[t*B+j] = root(t * j)
		}
	}
	// wT[s] = w_T^s = w_n^{s·m}, the butterfly weights.
	wT := make([]complex128, T/2)
	for s := range wT {
		wT[s] = tw[s*m]
	}
	// Loading tile rev[r] into row r puts the rows in bit-reversed order,
	// so the butterfly passes leave bin q in row q.
	shift := bits.UintSize - (bits.Len(uint(T)) - 1)
	rev := make([]int, T)
	for r := range rev {
		rev[r] = int(bits.Reverse(uint(r)) >> shift)
	}
	gemm.ParallelFor((m+B-1)/B, 1, func(lo, hi int) {
		buf := make([]complex128, T*B)
		for b := lo; b < hi; b++ {
			k0 := b * B
			kn := min(B, m-k0)
			row := func(r int) []complex128 { return buf[r*B : r*B+kn] }
			for r, t := range rev {
				g := tiles[t][k0 : k0+kn]
				if t == 0 {
					copy(row(r), g)
					continue
				}
				base, w, out := root(t*k0), inBlock[t*B:t*B+kn], row(r)[:len(g)]
				for j, gj := range g {
					out[j] = gj * (base * w[j])
				}
			}
			for h := 1; h < T/2; h *= 2 {
				for s := 0; s < T; s += 2 * h {
					for j := 0; j < h; j++ {
						u, v := row(s+j), row(s+j+h)
						butterfly(u, v, u, v, wT[j*(T/(2*h))])
					}
				}
			}
			// The last pass pairs rows q and q+T/2 and writes them to dst.
			for q := 0; q < T/2; q++ {
				x0, x1 := q*m+k0, (q+T/2)*m+k0
				butterfly(dst[x0:x0+kn], dst[x1:x1+kn], row(q), row(q+T/2), wT[q])
			}
		}
	})
	return nil
}

// butterfly sets a = x + w·y and b = x − w·y, element by element; a and b
// may be x and y themselves.
func butterfly(a, b, x, y []complex128, w complex128) {
	a, b, y = a[:len(x)], b[:len(x)], y[:len(x)]
	for i, xi := range x {
		t := w * y[i]
		a[i], b[i] = xi+t, xi-t
	}
}
