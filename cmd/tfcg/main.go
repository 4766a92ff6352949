// tfcg runs the distributed Conjugate Gradient solver on the documented
// test problem, cg.Laplacian1D(n, cg.LaplacianDiag) with a seeded uniform
// right-hand side (about 150 iterations to 1e-8 at any n).
//
// Cluster mode drives the solve over running tfserver tasks (collectives
// ring over TCP between the tasks); real mode starts that many tasks in
// this process and runs the same driver over them, each worker's graph in
// the driver's own session; both checkpoint every -checkpoint-every
// iterations and on completion, and -resume goes on from the checkpoint
// file. Sim mode evaluates a paper-scale configuration on the virtual
// platform.
//
//	tfcg -mode real -n 1024 -workers 4
//	tfcg -mode cluster -spec 127.0.0.1:7000,127.0.0.1:7001 -workers 2
//	tfcg -mode cluster -spec ... -workers 2 -checkpoint cg.ckpt -checkpoint-every 50
//	tfcg -mode cluster -spec ... -workers 2 -checkpoint cg.ckpt -resume
//	tfcg -mode sim -cluster kebnekaise -node v100
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tfhpc/apps/cg"
	"tfhpc/internal/cluster"
	"tfhpc/internal/hw"
	"tfhpc/internal/tensor"
)

func main() {
	mode := flag.String("mode", "real", "real|cluster|sim")
	n := flag.Int("n", 512, "matrix dimension")
	workers := flag.Int("workers", 4, "worker count (GPUs)")
	iters := flag.Int("iters", 500, "max iterations")
	tol := flag.Float64("tol", 1e-8, "residual tolerance (0 = run all iterations)")
	ckpt := flag.String("checkpoint", "", "checkpoint file path")
	every := flag.Int("checkpoint-every", 0, "checkpoint cadence in iterations")
	resume := flag.Bool("resume", false, "resume from the checkpoint file")
	spec := flag.String("spec", "", "cluster: comma-separated worker addresses host:port,...")
	job := flag.String("job", "worker", "cluster: worker job name")
	clusterName := flag.String("cluster", "kebnekaise", "sim: tegner|kebnekaise")
	node := flag.String("node", "v100", "sim: node type")
	flag.Parse()

	cfg := cg.Config{N: *n, Workers: *workers, MaxIters: *iters, Tol: *tol}
	opts := cg.RealOptions{CheckpointPath: *ckpt, CheckpointEvery: *every, Resume: *resume}
	switch *mode {
	case "real":
		a := cg.Laplacian1D(*n, cg.LaplacianDiag)
		b := tensor.RandomUniform(tensor.Float64, 43, *n)
		res, err := cg.RunReal(cfg, a, b, opts)
		if err != nil {
			fatal(err)
		}
		report("real", *n, *workers, res)
		checkTol(res, *tol)
	case "cluster":
		if *spec == "" {
			fatal(fmt.Errorf("cluster mode needs -spec host:port,host:port,..."))
		}
		addrs := strings.Split(*spec, ",")
		peers := cluster.NewPeers(cluster.Spec{*job: addrs})
		defer peers.Close()
		a := cg.Laplacian1D(*n, cg.LaplacianDiag)
		b := tensor.RandomUniform(tensor.Float64, 43, *n)
		res, err := cg.RunCluster(cfg, a, b, peers, cg.ClusterOptions{Job: *job, RealOptions: opts})
		if err != nil {
			fatal(err)
		}
		report("cluster", *n, *workers, res)
		checkTol(res, *tol)
	case "sim":
		c, nt, err := hw.NodeTypeByName(*clusterName, *node)
		if err != nil {
			fatal(err)
		}
		res, err := cg.RunSim(cg.SimConfig{Cluster: c, NodeType: nt, N: *n, GPUs: *workers, Iters: *iters})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cg sim: %s N=%d %d GPUs, %d iters: %.2fs (%.2f ms/iter), %.0f Gflop/s\n",
			nt.Name, *n, *workers, *iters, res.Seconds, 1e3*res.PerIter, res.Gflops)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// report prints the solve's outcome; a solve that ends at -iters short of
// -tol (every solve with -tol 0) says that it stopped at the limit.
func report(mode string, n, workers int, res *cg.RealResult) {
	outcome := "converged to"
	if !res.Converged {
		outcome = "stopped at the iteration limit:"
	}
	fmt.Printf("cg %s: N=%d workers=%d: %s ‖r‖=%.3g in %d iterations, %.3fs, %.2f Gflop/s\n",
		mode, n, workers, outcome, res.ResidualNorm, res.Iters, res.Seconds, res.Gflops)
}

// checkTol turns a missed tolerance into a nonzero exit — the contract the
// CI smoke job relies on.
func checkTol(res *cg.RealResult, tol float64) {
	if tol > 0 && res.ResidualNorm > tol {
		fatal(fmt.Errorf("residual %.3g above tolerance %.3g", res.ResidualNorm, tol))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tfcg: %v\n", err)
	os.Exit(1)
}
