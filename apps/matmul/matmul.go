// Package matmul implements the paper's tiled matrix-matrix multiplication
// (Fig. 4): two large matrices are pre-processed into .npy tiles; a shared
// dataset lists the (i, k, j) tile products; workers stream their shard of
// the list and multiply tile pairs on their GPU. RunCluster is the one
// driver: each worker is a cluster task running one graph, fed tile pairs
// by the driver, and accumulates its products into a local partial of C;
// the partials are summed with one in-graph ReduceScatter + AllGatherV pass
// between the tasks — the balanced replacement for the paper's two reducer
// queues, which sim mode still models faithfully (Fig. 4 prices the
// queue-and-reducer deployment). RunReal runs it over tasks in this
// process. Single precision as in the paper.
package matmul

import "fmt"

// Config describes one problem instance.
type Config struct {
	N    int // matrix dimension
	Tile int // tile dimension (4096 for K420, 8192 for K80 in the paper)
	// Workers counts the mapper TensorFlow instances. Reducers counts the
	// reducer tasks of the paper's deployment — sim mode models them (the
	// paper uses two, odd and even target indices); real mode reduces over
	// collectives between the workers instead.
	Workers  int
	Reducers int
}

// Validate checks the decomposition is well-formed.
func (c Config) Validate() error {
	if c.N <= 0 || c.Tile <= 0 || c.N%c.Tile != 0 {
		return fmt.Errorf("matmul: tile %d must divide N %d", c.Tile, c.N)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("matmul: need at least one worker")
	}
	if c.Reducers <= 0 {
		return fmt.Errorf("matmul: need at least one reducer")
	}
	return nil
}

// TilesPerDim returns N/Tile.
func (c Config) TilesPerDim() int { return c.N / c.Tile }

// Task is one tile product: C[I,J] += A[I,K] · B[K,J].
type Task struct {
	I, K, J int
}

// Target returns the flat output-tile index; the paper routes odd and even
// targets to different reducers.
func (t Task) Target(tilesPerDim int) int { return t.I*tilesPerDim + t.J }

// Reducer returns which reducer accumulates this task's product.
func (t Task) Reducer(c Config) int { return t.Target(c.TilesPerDim()) % c.Reducers }

// Tasks enumerates every tile product in deterministic order.
func (c Config) Tasks() []Task {
	tpd := c.TilesPerDim()
	out := make([]Task, 0, tpd*tpd*tpd)
	for i := 0; i < tpd; i++ {
		for j := 0; j < tpd; j++ {
			for k := 0; k < tpd; k++ {
				out = append(out, Task{I: i, K: k, J: j})
			}
		}
	}
	return out
}

// TileBytes is the size of one float32 tile.
func (c Config) TileBytes() int64 {
	return int64(c.Tile) * int64(c.Tile) * 4
}
