package fft

import (
	"fmt"
	"io"
	"time"

	"tfhpc/internal/cluster"
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

// group names the transform's collective group on every task.
const group = "fft"

// RunCluster executes the full pipeline with real numerics on an
// already-running cluster (see cluster.Peers.OpenJob; an empty job is
// "worker"): it pre-processes the signal into interleaved .npy tiles under
// dir in one pass, transforms each worker's shard through its session (the
// driver loads only that shard's tiles and feeds them), and collects with a
// pair of in-graph GatherV passes to rank 0, the merger: tile indices and
// tile payloads, both ragged since the tile count rarely divides the worker
// count. The driver combines the gathered tiles on the host.
func RunCluster(dir string, cfg Config, signal []complex128, peers *cluster.Peers, job string) (*RealResult, error) {
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
	j, err := peers.OpenJob(job, group, cfg.Workers, cluster.CollectiveOptions{},
		func(_ int, device string) *graph.Graph { return buildWorker(cfg, device) })
	if err != nil {
		return nil, err
	}
	defer j.Close()

	shared := dataset.FromFiles(paths)
	start := time.Now()
	// Rank 0 is the merger: its gathers return every rank's (indices,
	// tiles); the other ranks' return zero rows.
	var idxT, tilesT *tensor.Tensor
	if err := j.Each(func(w int, sess *session.Session) error {
		idx, tiles, err := runWorker(cfg, sess, shared, w)
		if err != nil {
			return fmt.Errorf("fft worker %d: %w", w, err)
		}
		if w == mergeRank {
			idxT, tilesT = idx, tiles
		}
		return nil
	}); err != nil {
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

// RunReal is RunCluster under cluster.RunLocal: on cfg.Workers tasks in
// this process, each worker's graph runs in the driver's own session
// against its task's resources (as a partition on the task under
// TFHPC_NO_SHM=1).
func RunReal(dir string, cfg Config, signal []complex128) (res *RealResult, err error) {
	err = cluster.RunLocal(cfg.Workers, func(peers *cluster.Peers) error {
		res, err = RunCluster(dir, cfg, signal, peers, "")
		return err
	})
	return res, err
}

// mergeRank is the rank the tiles are gathered to and merged on.
const mergeRank = 0

// buildWorker constructs one worker's graph on device: a tile placeholder
// → FFT ("fft"), and the ragged gathers of the worker's tile indices ("idx"
// → "gather_idx") and transformed tiles ("tiles" → "gather_tiles") to
// mergeRank, whose placeholders have no fixed length: workers own
// different tile counts, zero when they outnumber the tiles.
func buildWorker(cfg Config, device string) *graph.Graph {
	g := graph.New()
	g.WithDevice(device, func() {
		ph := g.Placeholder("tile", tensor.Complex128, tensor.Shape{cfg.TileLen()})
		g.WithDevice("/device:GPU:0", func() {
			g.AddNamedOp("fft", "FFT", nil, ph)
		})
		attrs := func(key string) graph.Attrs {
			return graph.Attrs{"group": group, "key": key, "root": mergeRank}
		}
		g.AddNamedOp("gather_idx", "GatherV", attrs("idx"), g.Placeholder("idx", tensor.Int64, nil))
		g.AddNamedOp("gather_tiles", "GatherV", attrs("tiles"), g.Placeholder("tiles", tensor.Complex128, nil))
	})
	return g
}

// runWorker transforms the worker's tile shard through its session and
// returns the gathers of tile indices and tile payloads: every rank's on
// mergeRank, zero rows elsewhere. The gathers concatenate in rank order, so
// the index gather labels the payload gather positionally.
func runWorker(cfg Config, sess *session.Session, shared dataset.Dataset, w int) (idx, tiles *tensor.Tensor, err error) {
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
		outs, err := sess.Run(map[string]*tensor.Tensor{"tile": elem[1]}, []string{"fft"}, nil)
		if err != nil {
			return nil, nil, err
		}
		myIdx = append(myIdx, elem[0].ScalarInt())
		myTiles = append(myTiles, outs[0].C128()...)
	}
	outs, err := sess.Run(map[string]*tensor.Tensor{
		"idx":   tensor.FromI64(tensor.Shape{len(myIdx)}, myIdx),
		"tiles": tensor.FromC128(tensor.Shape{len(myTiles)}, myTiles),
	}, []string{"gather_idx", "gather_tiles"}, nil)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}
