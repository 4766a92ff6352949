package matmul

import (
	"fmt"
	"io"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/core"
	"tfhpc/internal/dataset"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// RealResult is the outcome of an actual run.
type RealResult struct {
	Seconds float64
	Gflops  float64
	// C is the assembled product matrix.
	C *tensor.Tensor
}

// group names the product's collective group on every task.
const group = "matmul"

// RunCluster executes the full pipeline with real numerics on an
// already-running cluster (see cluster.Peers.OpenJob; an empty job is
// "worker"): it pre-processes A and B into .npy tiles under dir, then
// streams the shared task list through the workers' sessions, the driver
// loading each tile pair and feeding it to the worker's MatMul. Each worker
// accumulates its products into a local partial of C, and the partials are
// reduced with one in-graph ReduceScatter + AllGatherV pass between the
// tasks — the balanced collective that replaced the two central reducer
// queues. Timing covers the map-reduce phase only, matching the paper
// (pre-processing and task bring-up are excluded).
func RunCluster(dir string, cfg Config, a, b *tensor.Tensor, peers *cluster.Peers, job string) (*RealResult, error) {
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
	j, err := peers.OpenJob(job, group, cfg.Workers, cluster.CollectiveOptions{},
		func(_ int, device string) *graph.Graph { return buildWorker(cfg, device) })
	if err != nil {
		return nil, err
	}
	defer j.Close()

	// The shared dataset of tasks, sharded per worker.
	tasks := cfg.Tasks()
	elems := make([]dataset.Element, len(tasks))
	for i, t := range tasks {
		elems[i] = dataset.Element{tensor.FromI64(tensor.Shape{3}, []int64{int64(t.I), int64(t.K), int64(t.J)})}
	}
	shared := dataset.FromElements(elems...)

	start := time.Now()
	outs := make([]*tensor.Tensor, cfg.Workers)
	if err := j.Each(func(w int, sess *session.Session) (err error) {
		if outs[w], err = runWorker(cfg, sess, storeA, storeB, shared, w); err != nil {
			return fmt.Errorf("matmul worker %d: %w", w, err)
		}
		return nil
	}); err != nil {
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

// RunReal is RunCluster under cluster.RunLocal: on cfg.Workers tasks in
// this process, each worker's graph runs in the driver's own session
// against its task's resources (as a partition on the task under
// TFHPC_NO_SHM=1).
func RunReal(dir string, cfg Config, a, b *tensor.Tensor) (res *RealResult, err error) {
	err = cluster.RunLocal(cfg.Workers, func(peers *cluster.Peers) error {
		res, err = RunCluster(dir, cfg, a, b, peers, "")
		return err
	})
	return res, err
}

// buildWorker constructs one worker's graph on device: two tile
// placeholders → MatMul ("mm"), and the reduction of its partial of C
// ("partial"): ReduceScatter leaves this rank one (generally uneven)
// segment of the sum and AllGatherV ("ag") reassembles C on every rank.
func buildWorker(cfg Config, device string) *graph.Graph {
	g := graph.New()
	g.WithDevice(device, func() {
		phA := g.Placeholder("a", tensor.Float32, tensor.Shape{cfg.Tile, cfg.Tile})
		phB := g.Placeholder("b", tensor.Float32, tensor.Shape{cfg.Tile, cfg.Tile})
		g.WithDevice("/device:GPU:0", func() {
			g.AddNamedOp("mm", "MatMul", nil, phA, phB)
		})
		ph := g.Placeholder("partial", tensor.Float32, tensor.Shape{cfg.N * cfg.N})
		rs := g.AddNamedOp("rs", "ReduceScatter", graph.Attrs{"group": group, "key": "c_rs"}, ph)
		g.AddNamedOp("ag", "AllGatherV", graph.Attrs{"group": group, "key": "c_ag"}, rs)
	})
	return g
}

// runWorker feeds the worker's session tile pairs from its dataset shard,
// accumulating the products into a local partial of C, then runs the
// reduction and returns the reduced C.
func runWorker(cfg Config, sess *session.Session, storeA, storeB *core.TileStore,
	shared dataset.Dataset, w int) (*tensor.Tensor, error) {
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
		out, err := sess.Run(map[string]*tensor.Tensor{"a": tileA, "b": tileB}, []string{"mm"}, nil)
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
	out, err := sess.Run(map[string]*tensor.Tensor{
		"partial": tensor.FromF32(tensor.Shape{cfg.N * cfg.N}, partial),
	}, []string{"ag"}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
