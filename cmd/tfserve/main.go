// tfserve is the model server: it loads checkpointed models into the
// versioned serving registry and answers online predict traffic over a
// KServe-style HTTP/JSON API and (optionally) the framed binary RPC
// endpoint, with dynamic micro-batching and admission control in front of
// every model.
//
//	tfserve -listen 127.0.0.1:8500 -model prices=model.ckpt
//	tfserve -listen 127.0.0.1:8500 -genmodel gen=gen.ckpt   # POST /v1/models/gen:generate (SSE)
//	tfserve -listen 127.0.0.1:8500 -rpc 127.0.0.1:8501 -model a=a.ckpt -model b=b.ckpt
//	tfserve -listen 127.0.0.1:8500 -synthetic demo -features 256
//	tfserve -listen 127.0.0.1:8500 -route 127.0.0.1:8501,127.0.0.1:8502
//	tfserve -listen 127.0.0.1:8500 -model prices=model.ckpt \
//	        -autoscale min=1,max=4,target=8 -canary steps=10;50;100,hold=2s
//
// -model name=path serves a checkpoint written by tfsgd -checkpoint (or any
// servable linear checkpoint). -synthetic trains a small SGD linear model
// in-process and serves it — the zero-setup demo. -route makes this process
// a front router spreading requests over replica tfserve/tfserver tasks
// (least-loaded, failure-aware) instead of hosting models itself.
// -autoscale runs the serving control plane: an in-process replica fleet
// behind the router, sized by live load, with /controlz status and (with
// -canary) SLO-gated canary rollouts via POST /controlz/rollout.
//
//	curl -s localhost:8500/v1/models
//	curl -s -X POST localhost:8500/v1/models/demo:predict \
//	     -d '{"instances": [[0.1, 0.2, 0.3, ...]]}'
//	curl -s localhost:8500/statsz
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tfhpc/apps/sgd"
	"tfhpc/internal/pprofsrv"
	"tfhpc/internal/rpc"
	"tfhpc/internal/serving"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want -model name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var models, genModels modelFlags
	listen := flag.String("listen", "127.0.0.1:8500", "HTTP predictor listen address")
	rpcAddr := flag.String("rpc", "", "also serve the framed binary endpoint on this address (replicas need this)")
	flag.Var(&models, "model", "serve a checkpoint: name=path (repeatable)")
	flag.Var(&genModels, "genmodel", "serve a generative checkpoint (tfsgd -gen-checkpoint) with continuous batching: name=path (repeatable)")
	genSlots := flag.Int("gen-slots", 8, "generative: concurrent decode slots per model")
	genQueue := flag.Int("gen-queue", 64, "generative: admission queue depth per model")
	genMaxTokens := flag.Int("gen-max-tokens", 4096, "generative: per-sequence token budget cap")
	synthetic := flag.String("synthetic", "", "train a synthetic SGD linear model in-process and serve it under this name")
	features := flag.Int("features", 256, "synthetic model dimension")
	steps := flag.Int("steps", 40, "synthetic model training steps")
	route := flag.String("route", "", "route to replica addresses host:port,... instead of hosting models")
	autoscale := flag.String("autoscale", "", `run the serving control plane over an in-process replica fleet: "min=1,max=4,target=8[,tick=250ms,up-cooldown=...,down-cooldown=...,p99-ceiling=...,hysteresis=...,ewma=...]"`)
	canary := flag.String("canary", "", `canary rollout pacing (needs -autoscale): "steps=10;50;100[,hold=2s,maxp99=250ms,maxerr=0.01,min-samples=20,grace=...,remove-grace=...]"`)
	sloWindow := flag.Duration("slo-window", 30*time.Second, "SLO monitor window for autoscale/canary decisions")
	maxBatch := flag.Int("max-batch", 32, "micro-batcher largest batch (1 disables batching)")
	queueDepth := flag.Int("queue", 1024, "per-model admission queue depth")
	deadline := flag.Duration("deadline", time.Second, "default per-request deadline")
	runners := flag.Int("runners", 2, "concurrent batch executors per model")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof and /metricz on this address (off when empty)")
	traceOut := flag.String("trace-out", "", "record spans and write a Chrome/Perfetto trace here at shutdown (TFHPC_TRACE_OUT also works)")
	flag.Parse()

	telemetry.SetProcessName("tfserve")
	if *traceOut != "" {
		telemetry.SetTraceOut(*traceOut)
	}
	if *pprofAddr != "" {
		bound, err := pprofsrv.Serve(*pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		fmt.Printf("tfserve: debug server on http://%s (pprof, /metricz)\n", bound)
	}

	batch := serving.BatchOptions{
		MaxBatch:        *maxBatch,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		Runners:         *runners,
	}

	var predictor serving.Predictor
	var cleanup func()
	var handler http.Handler
	if *canary != "" && *autoscale == "" {
		fatal(fmt.Errorf("-canary needs -autoscale (the rollout controller lives in the control plane)"))
	}
	if *autoscale != "" {
		if *route != "" {
			fatal(fmt.Errorf("-autoscale excludes -route (the control plane runs its own router)"))
		}
		if len(genModels) > 0 {
			fatal(fmt.Errorf("-autoscale does not host -genmodel (serve generative models directly or behind -route)"))
		}
		cp, err := startControlPlane(models, *synthetic, *features, *steps,
			batch, *deadline, *sloWindow, *autoscale, *canary)
		if err != nil {
			fatal(err)
		}
		predictor = cp.Router()
		cleanup = cp.Close
		handler = controlPlaneMux(cp)
		fmt.Printf("tfserve: control plane up, replicas %s\n",
			strings.Join(cp.Fleet().Addrs(), ","))
	} else if *route != "" {
		if len(models) > 0 || len(genModels) > 0 || *synthetic != "" {
			fatal(fmt.Errorf("-route excludes -model/-genmodel/-synthetic (a router hosts no models)"))
		}
		r, err := serving.NewRouter(strings.Split(*route, ","), serving.RouterOptions{
			DefaultDeadline: *deadline,
		})
		if err != nil {
			fatal(err)
		}
		predictor = r
		cleanup = r.Close
		fmt.Printf("tfserve: routing over replicas %s\n", *route)
	} else {
		svc := serving.NewService(serving.NewRegistry(), batch)
		for _, m := range models {
			mv, err := serving.LoadLinear(m.name, 0, m.path)
			if err != nil {
				fatal(err)
			}
			if _, err := svc.ServeModel(mv); err != nil {
				fatal(err)
			}
			fmt.Printf("tfserve: serving %s v%d from %s (d=%d)\n",
				m.name, mv.Version(), m.path, mv.Signature().Features)
		}
		for _, m := range genModels {
			w, version, err := serving.LoadGenerative(m.path, 0)
			if err != nil {
				fatal(err)
			}
			if err := svc.ServeGenerative(m.name, version, w, generate.Options{
				MaxSlots:        *genSlots,
				QueueDepth:      *genQueue,
				MaxTokens:       *genMaxTokens,
				DefaultDeadline: *deadline,
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("tfserve: serving generative %s v%d from %s (d=%d, %d slots)\n",
				m.name, version, m.path, w.Shape()[0], *genSlots)
		}
		if *synthetic != "" {
			mv, err := trainSynthetic(*synthetic, *features, *steps)
			if err != nil {
				fatal(err)
			}
			if _, err := svc.ServeModel(mv); err != nil {
				fatal(err)
			}
			fmt.Printf("tfserve: serving synthetic %s v%d (d=%d, trained %d steps)\n",
				*synthetic, mv.Version(), *features, *steps)
		}
		if len(svc.Models()) == 0 {
			fatal(fmt.Errorf("nothing to serve: give -model, -genmodel, -synthetic or -route"))
		}
		predictor = svc
		cleanup = svc.Close
	}

	// Binary endpoint (the router's replica-facing surface). Health answers
	// the cluster liveness probe — a fleet's ReapDead/UnbenchRecovered can
	// treat a plain tfserve replica like any cluster task.
	var rpcSrv *rpc.Server
	if *rpcAddr != "" {
		rpcSrv = rpc.NewServer()
		rpcSrv.Handle("Health", func([]byte) ([]byte, error) { return []byte("ok"), nil })
		serving.Attach(rpcSrv, predictor)
		bound, err := rpcSrv.Listen(*rpcAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tfserve: binary endpoint on %s\n", bound)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	if handler == nil {
		handler = serving.NewHTTPHandler(predictor)
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)
	fmt.Printf("tfserve: HTTP predictor on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	httpSrv.Close()
	if rpcSrv != nil {
		rpcSrv.Close()
	}
	cleanup()
	if path, err := telemetry.DumpConfigured(); err != nil {
		fmt.Fprintf(os.Stderr, "tfserve: trace dump: %v\n", err)
	} else if path != "" {
		fmt.Printf("tfserve: trace written to %s\n", path)
	}
	fmt.Println("tfserve: shut down")
}

// trainSynthetic trains the apps/sgd linear model in-process and wraps the
// learned weights as a servable version — train → serve with no file in
// between.
func trainSynthetic(name string, features, steps int) (*serving.ModelVersion, error) {
	w, err := trainSyntheticWeights(features, steps)
	if err != nil {
		return nil, err
	}
	return serving.NewLinear(name, steps, w)
}

// trainSyntheticWeights is the trainable half of -synthetic: the control
// plane reuses the learned weights as a ModelSource for every backend.
func trainSyntheticWeights(features, steps int) (*tensor.Tensor, error) {
	res, err := sgd.RunReal(sgd.Config{
		Features:      features,
		RowsPerWorker: 4 * features,
		Workers:       2,
		Steps:         steps,
		LR:            0.3,
		Seed:          42,
		Noise:         0.01,
	})
	if err != nil {
		return nil, err
	}
	return res.Weights, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tfserve: %v\n", err)
	os.Exit(1)
}
