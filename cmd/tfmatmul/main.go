// tfmatmul runs the tiled matrix-matrix multiplication application.
//
// Cluster mode computes an actual product through the tile-file map-reduce
// pipeline over running tfserver tasks, one per worker: the driver saves
// and loads the tiles and feeds them, each task multiplies its pairs and
// the tasks reduce C with ring collectives between them. Real mode starts
// that many tasks in this process and runs the same driver over them, each
// worker's graph in the driver's own session. Both verify C against a
// direct product (-verify). Sim mode evaluates a paper-scale configuration
// on the virtual platform.
//
//	tfmatmul -mode real -n 512 -tile 128
//	tfmatmul -mode cluster -spec 127.0.0.1:7000,127.0.0.1:7001 -workers 2
//	tfmatmul -mode sim -cluster tegner -node k80
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tfhpc/apps/matmul"
	"tfhpc/internal/cluster"
	"tfhpc/internal/hw"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

func main() {
	mode := flag.String("mode", "real", "real|cluster|sim")
	n := flag.Int("n", 256, "matrix dimension")
	tile := flag.Int("tile", 64, "tile dimension")
	workers := flag.Int("workers", 4, "worker count (GPUs)")
	reducers := flag.Int("reducers", 2, "reducer count")
	dir := flag.String("dir", "", "tile directory (default: temp)")
	clusterName := flag.String("cluster", "tegner", "sim: tegner|kebnekaise")
	node := flag.String("node", "k80", "sim: node type")
	verify := flag.Bool("verify", true, "real, cluster: check against direct product")
	spec := flag.String("spec", "", "cluster: comma-separated worker addresses host:port,...")
	job := flag.String("job", "worker", "cluster: worker job name")
	flag.Parse()

	cfg := matmul.Config{N: *n, Tile: *tile, Workers: *workers, Reducers: *reducers}
	switch *mode {
	case "real", "cluster":
		d := *dir
		if d == "" {
			var err error
			if d, err = os.MkdirTemp("", "tfmatmul"); err != nil {
				fatal(err)
			}
			defer os.RemoveAll(d)
		}
		a := tensor.RandomUniform(tensor.Float32, 1, *n, *n)
		b := tensor.RandomUniform(tensor.Float32, 2, *n, *n)
		var res *matmul.RealResult
		var err error
		if *mode == "real" {
			res, err = matmul.RunReal(d, cfg, a, b)
		} else {
			if *spec == "" {
				fatal(fmt.Errorf("cluster mode needs -spec host:port,host:port,..."))
			}
			peers := cluster.NewPeers(cluster.Spec{*job: strings.Split(*spec, ",")})
			defer peers.Close()
			res, err = matmul.RunCluster(d, cfg, a, b, peers, *job)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("matmul %s: N=%d tile=%d workers=%d: %.3fs, %.1f Gflop/s\n",
			*mode, *n, *tile, *workers, res.Seconds, res.Gflops)
		if *verify {
			want, err := ops.Run("MatMul", &ops.Context{}, []*tensor.Tensor{a, b})
			if err != nil {
				fatal(err)
			}
			if !res.C.ApproxEqual(want, 1e-3) {
				fatal(fmt.Errorf("verification FAILED"))
			}
			fmt.Println("verification: OK (pipeline matches direct product)")
		}
	case "sim":
		c, nt, err := hw.NodeTypeByName(*clusterName, *node)
		if err != nil {
			fatal(err)
		}
		res, err := matmul.RunSim(matmul.SimConfig{Cluster: c, NodeType: nt, Config: cfg})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("matmul sim: %s N=%d tile=%d %d GPUs + %d reducers: %.1fs, %.0f Gflop/s (gpu util %.0f%%)\n",
			nt.Name, *n, *tile, *workers, *reducers, res.Seconds, res.Gflops, 100*res.GPUUtil)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tfmatmul: %v\n", err)
	os.Exit(1)
}
