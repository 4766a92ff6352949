package matmul

import (
	"fmt"
	"io"
	"sync"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/core"
	"tfhpc/internal/dataset"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// RealResult is the outcome of an actual in-process run.
type RealResult struct {
	Seconds float64
	Gflops  float64
	// C is the assembled product matrix.
	C *tensor.Tensor
}

// collGroup names worker w's membership in the in-process collective fabric.
func collGroup(w int) string { return fmt.Sprintf("matmul/w%d", w) }

// RunReal executes the full pipeline with real numerics: pre-processes A
// and B into .npy tiles under dir, streams the shared task list through
// worker sessions (one graph per worker: two tile placeholders → MatMul),
// each worker accumulating its products into a local partial of C, then
// reduces the partials with one in-graph ReduceScatter + AllGatherV pass —
// the balanced collective that replaced the two central reducer queues
// (every worker reduces an even share instead of two tasks ingesting
// everything). Timing covers the map-reduce phase only, matching the paper
// (pre-processing is excluded).
func RunReal(dir string, cfg Config, a, b *tensor.Tensor) (*RealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	storeA, err := core.SaveMatrixTiles(dir, "A", a, cfg.Tile)
	if err != nil {
		return nil, err
	}
	storeB, err := core.SaveMatrixTiles(dir, "B", b, cfg.Tile)
	if err != nil {
		return nil, err
	}

	// One collective group spans the workers; the reduction rings between
	// them with no designated reducer task.
	res := session.NewResources()
	groups := collective.NewLoopbackGroups(cfg.Workers, collective.Options{})
	for w, grp := range groups {
		res.Colls.Register(collGroup(w), grp)
	}
	defer res.Colls.CloseAll()

	// The shared dataset of tasks, sharded per worker.
	tasks := cfg.Tasks()
	elems := make([]dataset.Element, len(tasks))
	for i, t := range tasks {
		elems[i] = dataset.Element{tensor.FromI64(tensor.Shape{3}, []int64{int64(t.I), int64(t.K), int64(t.J)})}
	}
	shared := dataset.FromElements(elems...)

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	// On any failure, poison the collective fabric so peers blocked in the
	// reduction unwind instead of deadlocking.
	abort := func() {
		for _, grp := range groups {
			grp.Close()
		}
	}

	outs := make([]*tensor.Tensor, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := runWorker(cfg, res, storeA, storeB, shared, w)
			if err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w, err)
				abort()
				return
			}
			outs[w] = out
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()

	// Every worker holds the identical reduced C; reshape worker 0's copy.
	c, err := outs[0].Reshape(cfg.N, cfg.N)
	if err != nil {
		return nil, err
	}
	return &RealResult{
		Seconds: elapsed,
		Gflops:  core.Gflops(core.MatMulFlops(cfg.N), elapsed),
		C:       c,
	}, nil
}

// runWorker builds the worker's map graph once, feeds it tile pairs from
// the worker's dataset shard while accumulating products into a local
// partial of C, then runs the reduce graph: ReduceScatter sums the partials
// across workers leaving this rank one (generally uneven) segment, and
// AllGatherV reassembles the full matrix on every rank.
func runWorker(cfg Config, res *session.Resources, storeA, storeB *core.TileStore,
	shared dataset.Dataset, w int) (*tensor.Tensor, error) {
	g := graph.New()
	phA := g.Placeholder("a", tensor.Float32, tensor.Shape{cfg.Tile, cfg.Tile})
	phB := g.Placeholder("b", tensor.Float32, tensor.Shape{cfg.Tile, cfg.Tile})
	var mm *graph.Node
	g.WithDevice("/device:GPU:0", func() {
		mm = g.AddNamedOp("mm", "MatMul", nil, phA, phB)
	})
	sess, err := session.New(g, res, session.Options{})
	if err != nil {
		return nil, err
	}

	partial := make([]float32, cfg.N*cfg.N)
	tpd := cfg.TilesPerDim()
	it := dataset.Prefetch(dataset.Shard(shared, cfg.Workers, w), 2).Iterator()
	defer it.Close()
	for {
		elem, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx := elem[0].I64()
		task := Task{I: int(idx[0]), K: int(idx[1]), J: int(idx[2])}
		tileA, err := storeA.LoadTile(task.I, task.K)
		if err != nil {
			return nil, err
		}
		tileB, err := storeB.LoadTile(task.K, task.J)
		if err != nil {
			return nil, err
		}
		out, err := sess.Run(map[string]*tensor.Tensor{"a": tileA, "b": tileB},
			[]string{mm.Name()}, nil)
		if err != nil {
			return nil, err
		}
		// Accumulate the product into this worker's partial at its target
		// block — the work the reducer tasks used to serialise.
		ti, tj := task.Target(tpd)/tpd, task.Target(tpd)%tpd
		src := out[0].F32()
		for row := 0; row < cfg.Tile; row++ {
			dst := partial[(ti*cfg.Tile+row)*cfg.N+tj*cfg.Tile:]
			gemm.Add32(dst[:cfg.Tile], src[row*cfg.Tile:(row+1)*cfg.Tile])
		}
	}

	rg := graph.New()
	ph := rg.Placeholder("partial", tensor.Float32, tensor.Shape{cfg.N * cfg.N})
	rs := rg.AddNamedOp("rs", "ReduceScatter", graph.Attrs{"group": collGroup(w), "key": "c_rs"}, ph)
	ag := rg.AddNamedOp("ag", "AllGatherV", graph.Attrs{"group": collGroup(w), "key": "c_ag"}, rs)
	rsess, err := session.New(rg, res, session.Options{})
	if err != nil {
		return nil, err
	}
	out, err := rsess.Run(map[string]*tensor.Tensor{
		"partial": tensor.FromF32(tensor.Shape{cfg.N * cfg.N}, partial),
	}, []string{ag.Name()}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
