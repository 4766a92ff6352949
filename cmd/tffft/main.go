// tffft runs the distributed 1-D FFT application.
//
// Cluster mode transforms a synthetic signal through the interleaved-tile
// pipeline over running tfserver tasks, one per worker: the driver saves
// and loads the tiles and feeds them, each task transforms its shard, and
// the tasks gather the transformed tiles to task 0 with ragged collectives
// for the driver's merge. Real mode starts that many tasks in this process
// and runs the same driver over them, each worker's graph in the driver's
// own session. Both verify X against the planned engine (-verify). Sim
// mode evaluates a paper-scale configuration on the virtual platform.
//
//	tffft -mode real -logn 18
//	tffft -mode cluster -spec 127.0.0.1:7000,127.0.0.1:7001 -workers 2
//	tffft -mode sim -node k80
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"strings"
	"time"

	appfft "tfhpc/apps/fft"
	"tfhpc/internal/cluster"
	"tfhpc/internal/core"
	"tfhpc/internal/fft"
	"tfhpc/internal/hw"
	"tfhpc/internal/tensor"
)

func main() {
	mode := flag.String("mode", "real", "real|cluster|sim")
	logN := flag.Int("logn", 14, "log2 of the signal length")
	tiles := flag.Int("tiles", 8, "interleaved tile count")
	workers := flag.Int("workers", 4, "worker count (GPUs)")
	dir := flag.String("dir", "", "tile directory (default: temp)")
	node := flag.String("node", "k80", "sim: Tegner node type (k420|k80)")
	verify := flag.Bool("verify", true, "real, cluster: check against direct FFT")
	spec := flag.String("spec", "", "cluster: comma-separated worker addresses host:port,...")
	job := flag.String("job", "worker", "cluster: worker job name")
	flag.Parse()

	n := 1 << *logN
	cfg := appfft.Config{N: n, Tiles: *tiles, Workers: *workers}
	switch *mode {
	case "real", "cluster":
		d := *dir
		if d == "" {
			var err error
			if d, err = os.MkdirTemp("", "tffft"); err != nil {
				fatal(err)
			}
			defer os.RemoveAll(d)
		}
		r := tensor.NewRNG(7)
		signal := make([]complex128, n)
		for i := range signal {
			signal[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
		}
		var res *appfft.RealResult
		var err error
		if *mode == "real" {
			res, err = appfft.RunReal(d, cfg, signal)
		} else {
			if *spec == "" {
				fatal(fmt.Errorf("cluster mode needs -spec host:port,host:port,..."))
			}
			peers := cluster.NewPeers(cluster.Spec{*job: strings.Split(*spec, ",")})
			defer peers.Close()
			res, err = appfft.RunCluster(d, cfg, signal, peers, *job)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fft %s: N=2^%d tiles=%d workers=%d: collect %.3fs (%.2f Gflop/s), merge %.3fs\n",
			*mode, *logN, *tiles, *workers, res.CollectSeconds, res.Gflops, res.MergeSeconds)
		if *verify {
			want := append([]complex128(nil), signal...)
			start := time.Now()
			if err := fft.Forward(want); err != nil {
				fatal(err)
			}
			engine := time.Since(start).Seconds()
			for i := range want {
				if cmplx.Abs(res.X[i]-want[i]) > 1e-7*float64(n) {
					fatal(fmt.Errorf("verification FAILED at sample %d", i))
				}
			}
			fmt.Printf("verification: OK (pipeline matches the planned engine: %.3fs, %.2f Gflop/s single-shot)\n",
				engine, core.Gflops(core.FFTFlops(n), engine))
		}
	case "sim":
		c, nt, err := hw.NodeTypeByName("tegner", *node)
		if err != nil {
			fatal(err)
		}
		res, err := appfft.RunSim(appfft.SimConfig{Cluster: c, NodeType: nt, Config: cfg})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fft sim: %s N=2^%d tiles=%d %d GPUs: collect %.1fs, %.1f Gflop/s (est. host merge %.1fs)\n",
			nt.Name, *logN, *tiles, *workers, res.Seconds, res.Gflops, res.EstMergeSeconds)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tffft: %v\n", err)
	os.Exit(1)
}
