package fft

import (
	"fmt"
	"io"
	"sync"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/core"
	"tfhpc/internal/dataset"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// RealResult reports a real run. Following the paper, CollectSeconds (until
// the merging rank holds every transformed tile) is the timed portion; the
// host merge is reported separately.
type RealResult struct {
	X              []complex128 // the full transform
	CollectSeconds float64
	MergeSeconds   float64
	Gflops         float64 // over the collection phase, paper-style
}

// collGroup names worker w's membership in the in-process collective group.
func collGroup(w int) string { return fmt.Sprintf("fft/w%d", w) }

// RunReal executes the full pipeline with real numerics: pre-processes the
// signal into interleaved .npy tiles under dir in one pass, transforms each
// worker's shard through an FFT session — the shard selects its files
// before any is read, so a worker loads only its own tiles — then collects
// with a pair of in-graph GatherV passes to rank 0, the merger: tile
// indices and tile payloads, both ragged since the tile count rarely
// divides the worker count. Only the merger receives the transformed
// tiles, and it combines them on the host.
func RunReal(dir string, cfg Config, signal []complex128) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(signal) != cfg.N {
		return nil, fmt.Errorf("fft: signal length %d != N %d", len(signal), cfg.N)
	}
	paths, err := core.SaveInterleavedTiles(dir, "x", signal, cfg.Tiles)
	if err != nil {
		return nil, err
	}

	res := session.NewResources()
	groups := collective.NewLoopbackGroups(cfg.Workers, collective.Options{})
	for w, grp := range groups {
		res.Colls.Register(collGroup(w), grp)
	}
	defer res.Colls.CloseAll()

	shared := dataset.FromFiles(paths)
	start := time.Now()

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	abort := func() {
		for _, grp := range groups {
			grp.Close()
		}
	}

	// Rank 0 is the merger: its gathers return every rank's (indices,
	// tiles); the other ranks' return zero rows.
	var idxT, tilesT *tensor.Tensor
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx, tiles, err := runWorker(cfg, res, shared, w)
			if err != nil {
				errCh <- fmt.Errorf("fft worker %d: %w", w, err)
				abort()
				return
			}
			if w == mergeRank {
				idxT, tilesT = idx, tiles
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	collectSeconds := time.Since(start).Seconds()

	// Label the gathered tiles by index for the merge, which then
	// overwrites the gathered buffer with the transform.
	collected := make([][]complex128, cfg.Tiles)
	idx := idxT.I64()
	flat := tilesT.C128()
	m := cfg.TileLen()
	if len(idx)*m != len(flat) {
		return nil, fmt.Errorf("fft: gathered %d indices but %d samples", len(idx), len(flat))
	}
	for i, ti := range idx {
		if ti < 0 || int(ti) >= cfg.Tiles {
			return nil, fmt.Errorf("fft: gathered tile index %d of %d", ti, cfg.Tiles)
		}
		if collected[ti] != nil {
			return nil, fmt.Errorf("fft: tile %d gathered twice", ti)
		}
		collected[ti] = flat[i*m : (i+1)*m]
	}
	for ti, tile := range collected {
		if tile == nil {
			return nil, fmt.Errorf("fft: tile %d never gathered", ti)
		}
	}

	mergeStart := time.Now()
	if err := MergeInterleaved(flat, collected); err != nil {
		return nil, err
	}
	return &RealResult{
		X:              flat,
		CollectSeconds: collectSeconds,
		MergeSeconds:   time.Since(mergeStart).Seconds(),
		Gflops:         core.Gflops(core.FFTFlops(cfg.N), collectSeconds),
	}, nil
}

// mergeRank is the rank the tiles are gathered to and merged on.
const mergeRank = 0

// runWorker transforms the worker's tile shard through an FFT session and
// returns the gathers of tile indices and tile payloads: every rank's on
// mergeRank, zero rows elsewhere.
func runWorker(cfg Config, res *session.Resources, shared dataset.Dataset, w int) (idx, tiles *tensor.Tensor, err error) {
	g := graph.New()
	ph := g.Placeholder("tile", tensor.Complex128, tensor.Shape{cfg.TileLen()})
	var out *graph.Node
	g.WithDevice("/device:GPU:0", func() {
		out = g.AddNamedOp("fft", "FFT", nil, ph)
	})
	sess, err := session.New(g, res, session.Options{})
	if err != nil {
		return nil, nil, err
	}
	// The round-robin shard gives worker w every Workers-th tile from w on:
	// ⌈(Tiles−w)/Workers⌉ of them, zero when w ≥ Tiles.
	owned := (cfg.Tiles - w + cfg.Workers - 1) / cfg.Workers
	myIdx := make([]int64, 0, owned)
	myTiles := make([]complex128, 0, owned*cfg.TileLen())
	it := dataset.Prefetch(dataset.Shard(shared, cfg.Workers, w), 2).Iterator()
	defer it.Close()
	for {
		elem, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		outs, err := sess.Run(map[string]*tensor.Tensor{"tile": elem[1]},
			[]string{out.Name()}, nil)
		if err != nil {
			return nil, nil, err
		}
		myIdx = append(myIdx, elem[0].ScalarInt())
		myTiles = append(myTiles, outs[0].C128()...)
	}

	// Collection: two ragged gathers to the merger (this worker may own
	// zero tiles when workers outnumber tiles), concatenated in rank order
	// so the index gather labels the payload gather positionally.
	cg := graph.New()
	phI := cg.Placeholder("idx", tensor.Int64, tensor.Shape{len(myIdx)})
	phT := cg.Placeholder("tiles", tensor.Complex128, tensor.Shape{len(myTiles)})
	attrs := func(key string) graph.Attrs {
		return graph.Attrs{"group": collGroup(w), "key": key, "root": mergeRank}
	}
	gatherI := cg.AddNamedOp("gather_idx", "GatherV", attrs("idx"), phI)
	gatherT := cg.AddNamedOp("gather_tiles", "GatherV", attrs("tiles"), phT)
	csess, err := session.New(cg, res, session.Options{})
	if err != nil {
		return nil, nil, err
	}
	outs, err := csess.Run(map[string]*tensor.Tensor{
		"idx":   tensor.FromI64(tensor.Shape{len(myIdx)}, myIdx),
		"tiles": tensor.FromC128(tensor.Shape{len(myTiles)}, myTiles),
	}, []string{gatherI.Name(), gatherT.Name()}, nil)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}
