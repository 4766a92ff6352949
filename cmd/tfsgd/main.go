// tfsgd trains a synthetic linear model with data-parallel synchronous SGD —
// the paper's Horovod scenario: full weight replicas, per-step gradient
// allreduce over ring collectives, no parameter server.
//
// Real mode runs all replicas in-process over a loopback fabric; cluster
// mode places one replica per running tfserver task with the allreduce
// running over TCP between the tasks (algorithm picked per call: recursive
// doubling below the payload threshold, ring above); sim mode prices a
// deployment on the virtual platform and reports the ring-vs-central
// communication comparison. Every run double-buffers its loss allreduce
// through async handles, so each step's loss is fetched one step late.
// -param-tensors only splits the gradient: the weights become several
// parameter tensors with one gradient allreduce each, and -fuse coalesces
// those allreduces through the fusion buffer — bit-identical results, one
// collective pass per step.
//
// Elastic mode is cluster mode that survives rank loss: checkpoints every
// -ckpt-every steps, shrinks the group around a dead task, resumes from the
// checkpoint, and folds a restarted task back in at the next boundary. It
// prints a machine-parseable summary line for CI.
//
//	tfsgd -mode real -features 4096 -rows 1024 -workers 4 -steps 50
//	tfsgd -mode cluster -spec 127.0.0.1:7000,127.0.0.1:7001 -workers 2
//	tfsgd -mode cluster -spec ... -workers 4 -param-tensors 8 -fuse
//	tfsgd -mode elastic -spec ... -workers 4 -ckpt-file sgd.ckpt -step-delay 50ms
//	tfsgd -mode sim -cluster kebnekaise -node v100 -proto rdma -features 1048576
//	tfsgd -mode real -features 256 -checkpoint model.ckpt   # then: tfserve -model m=model.ckpt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"tfhpc/apps/sgd"
	"tfhpc/internal/cluster"
	"tfhpc/internal/hw"
	"tfhpc/internal/serving"
	"tfhpc/internal/simnet"
)

func main() {
	mode := flag.String("mode", "real", "real|cluster|elastic|sim")
	features := flag.Int("features", 1024, "model dimension")
	rows := flag.Int("rows", 512, "samples per worker shard")
	workers := flag.Int("workers", 4, "data-parallel replicas")
	steps := flag.Int("steps", 50, "gradient steps")
	lr := flag.Float64("lr", 0.3, "learning rate")
	seed := flag.Uint64("seed", 42, "data seed")
	noise := flag.Float64("noise", 0.01, "label noise amplitude")
	spec := flag.String("spec", "", "cluster: comma-separated worker addresses host:port,...")
	job := flag.String("job", "worker", "cluster: worker job name")
	clusterName := flag.String("cluster", "kebnekaise", "sim: tegner|kebnekaise")
	node := flag.String("node", "v100", "sim: node type")
	proto := flag.String("proto", "rdma", "sim: grpc|mpi|rdma")
	ckpt := flag.String("checkpoint", "", "save the trained weights as a servable linear-model checkpoint (tfserve -model)")
	genCkpt := flag.String("gen-checkpoint", "", "save the trained weights as a servable generative (autoregressive) checkpoint (tfserve -genmodel)")
	paramTensors := flag.Int("param-tensors", 1, "split the weights into this many parameter tensors, one gradient allreduce each (Horovod shape; bit-identical to one tensor)")
	fuse := flag.Bool("fuse", false, "coalesce the per-tensor gradient allreduces through the fusion buffer (bit-identical to unfused)")
	ckptFile := flag.String("ckpt-file", "", "elastic: training checkpoint path (atomic, CRC-trailered; resume source after rank loss)")
	ckptEvery := flag.Int("ckpt-every", 5, "elastic: checkpoint every K steps")
	minWorkers := flag.Int("min-workers", 1, "elastic: fail the run when live tasks drop below this")
	stepDelay := flag.Duration("step-delay", 0, "elastic: sleep before each step (widens the window an external kill must land in)")
	flag.Parse()

	cfg := sgd.Config{
		Features:      *features,
		RowsPerWorker: *rows,
		Workers:       *workers,
		Steps:         *steps,
		LR:            *lr,
		Seed:          *seed,
		Noise:         *noise,
		ParamTensors:  *paramTensors,
		Fuse:          *fuse,
	}

	switch *mode {
	case "real":
		res, err := sgd.RunReal(cfg)
		if err != nil {
			fatal(err)
		}
		report("real", cfg, res)
		check(res)
		saveCheckpoint(*ckpt, *genCkpt, cfg, res)
	case "cluster":
		if *spec == "" {
			fatal(fmt.Errorf("cluster mode needs -spec host:port,host:port,..."))
		}
		addrs := strings.Split(*spec, ",")
		peers := cluster.NewPeers(cluster.Spec{*job: addrs})
		defer peers.Close()
		res, err := sgd.RunCluster(cfg, peers, sgd.ClusterOptions{Job: *job})
		if err != nil {
			fatal(err)
		}
		report("cluster", cfg, res)
		check(res)
		saveCheckpoint(*ckpt, *genCkpt, cfg, res)
	case "elastic":
		if *spec == "" {
			fatal(fmt.Errorf("elastic mode needs -spec host:port,host:port,..."))
		}
		addrs := strings.Split(*spec, ",")
		peers := cluster.NewPeers(cluster.Spec{*job: addrs})
		defer peers.Close()
		res, err := sgd.RunElasticCluster(cfg, peers, sgd.ClusterOptions{Job: *job}, sgd.ElasticOptions{
			CkptPath:   *ckptFile,
			CkptEvery:  *ckptEvery,
			MinWorkers: *minWorkers,
			StepDelay:  *stepDelay,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		report("elastic", cfg, &res.Result)
		check(&res.Result)
		// Machine-parseable for the CI smoke harness.
		fmt.Printf("sgd elastic: final_loss=%.9g shrinks=%d grows=%d rebuilds=%d resumes=%d workers=%d\n",
			res.FinalLoss, res.Shrinks, res.Grows, res.Rebuilds, res.Resumes, res.FinalWorkers)
		saveCheckpoint(*ckpt, *genCkpt, cfg, &res.Result)
	case "sim":
		c, nt, err := hw.NodeTypeByName(*clusterName, *node)
		if err != nil {
			fatal(err)
		}
		pr, err := simnet.ParseProtocol(*proto)
		if err != nil {
			fatal(err)
		}
		res, err := sgd.RunSim(sgd.SimConfig{Cluster: c, NodeType: nt, Protocol: pr, Config: cfg})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sgd sim: %s %s d=%d p=%d: %.3f ms/step (compute %.3f ms, ring allreduce %.3f ms)\n",
			nt.Name, pr, cfg.Features, cfg.Workers,
			1e3*res.StepSeconds, 1e3*res.ComputeSeconds, 1e3*res.RingSeconds)
		fmt.Printf("sgd sim: ring vs gather-to-root: %.3f ms vs %.3f ms (%.1fx)\n",
			1e3*res.RingSeconds, 1e3*res.NaiveSeconds, res.RingSpeedup)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func report(mode string, cfg sgd.Config, res *sgd.Result) {
	fmt.Printf("sgd %s: d=%d rows=%d p=%d: loss %.4g -> %.4g in %d steps, ‖w-w*‖/‖w*‖=%.3g, %.3fs (%.2f ms/step)\n",
		mode, cfg.Features, cfg.RowsPerWorker, cfg.Workers,
		res.InitialLoss, res.FinalLoss, res.Steps, res.WeightErr,
		res.Seconds, 1e3*res.StepSeconds)
	if !res.ReplicasEqual {
		fmt.Println("sgd: WARNING: replicas diverged")
	}
}

// check turns a broken run into a nonzero exit — the CI smoke contract:
// training must reduce the loss, keep it finite, and keep replicas equal.
// (Losses are sampled before each update, so a 1-step run has nothing to
// compare yet and only the finiteness and replica checks apply.)
func check(res *sgd.Result) {
	switch {
	case math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0):
		fatal(fmt.Errorf("loss diverged to %g", res.FinalLoss))
	case res.Steps > 1 && res.FinalLoss >= res.InitialLoss:
		fatal(fmt.Errorf("loss did not decrease: %g -> %g", res.InitialLoss, res.FinalLoss))
	case !res.ReplicasEqual:
		fatal(fmt.Errorf("weight replicas diverged"))
	}
}

// saveCheckpoint writes the trained weights in the requested servable
// formats — the handoff from training to tfserve (train → checkpoint →
// serve). The same weight vector serves both ways: as a one-shot linear
// predictor, or as the autoregressive decode step of a generative model.
func saveCheckpoint(path, genPath string, cfg sgd.Config, res *sgd.Result) {
	if path == "" && genPath == "" {
		return
	}
	if res.Weights == nil {
		fatal(fmt.Errorf("no trained weights to checkpoint"))
	}
	if path != "" {
		if err := serving.SaveLinear(path, int64(cfg.Steps), res.Weights); err != nil {
			fatal(err)
		}
		fmt.Printf("sgd: checkpointed trained model to %s (d=%d, servable as a linear model)\n",
			path, cfg.Features)
	}
	if genPath != "" {
		if err := serving.SaveGenerative(genPath, int64(cfg.Steps), res.Weights); err != nil {
			fatal(err)
		}
		fmt.Printf("sgd: checkpointed trained model to %s (d=%d, servable as a generative model)\n",
			genPath, cfg.Features)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tfsgd: %v\n", err)
	os.Exit(1)
}
