package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tfhpc/apps/stream"
	"tfhpc/internal/cluster"
	"tfhpc/internal/collective"
	"tfhpc/internal/core"
	"tfhpc/internal/fft"
	"tfhpc/internal/gemm"
	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// Layer probes: direct timed calls into one package's public functions, with
// the shapes the workloads use. They are the per-layer metrics of the traced
// pass and the unit costs of the layer budgets. Names are <package>.<what>.
const (
	pGemm32     = "gemm.gemm32_gflops"
	pMatVec     = "gemm.matvec_gbps"
	pMatVecL2   = "gemm.matvec_l2_gbps"
	pFFT        = "fft.c128_gflops"
	pFFT1       = "fft.c128_gflops_p1"
	pSessionRun = "session.run_us"
	pLoopLat    = "collective.loopback_lat_us"
	pLoopMbps   = "collective.loopback_mbps"
	pTCPLat     = "collective.tcp_lat_us"
	pTCPMbps    = "collective.tcp_mbps"
	pShmMbps    = "collective.shm_mbps"
	pCallRtt    = "rpc.call_rtt_us"
	pCallMbps   = "rpc.call_mbps"
	pStreamOpen = "rpc.stream_open_us"
	pStreamRtt  = "rpc.stream_rtt_us"
	pEncode     = "tensor.encode_gbps"
	pDecode     = "tensor.decode_gbps"
	pRemoteOp   = "cluster.remote_op_us"
	pQueueWait  = "batcher.queue_wait_ms"
	pMeanBatch  = "batcher.mean_batch"
	pRowUs      = "serving.row_us"
	pEngineTok  = "engine.decode_tokens_per_s"
	pEngineTTFT = "engine.ttft_ms"
	pEngineFill = "engine.tokens_per_step"
	pTileLoad   = "npy.tile_load_mbps"
)

// probeSet maps a per-layer metric name to its value.
type probeSet map[string]float64

// probeTime is how long each probe keeps calling.
const probeTime = 120 * time.Millisecond

// timeCalls calls f in batches of k for about probeTime (at least three
// batches) and returns the median seconds per call. Batching keeps the
// clock's own cost out of calls that take microseconds.
func timeCalls(k int, f func()) float64 { return timeAround(k, func() {}, f, func() {}) }

// timeAround is timeCalls with untimed work before and after each batch.
func timeAround(k int, before, f, after func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < probeTime; {
		before()
		t0 := time.Now()
		for i := 0; i < k; i++ {
			f()
		}
		per = append(per, time.Since(t0).Seconds()/float64(k))
		after()
	}
	return median(per)
}

// allreduceCalls issues n AllReduce calls of ins[rank] on every rank at once
// and returns rank 0's seconds per call. check, when set, sees every result
// after that call's clock has stopped.
func allreduceCalls(groups []*collective.Group, key string, ins []*tensor.Tensor, n int,
	check func(rank int, out *tensor.Tensor)) ([]float64, error) {
	took := make([]float64, 0, n)
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for rank := range groups {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				out, err := groups[rank].AllReduce(key, ins[rank], collective.OpSum)
				d := time.Since(t0)
				if err != nil {
					errs[rank] = err
					return
				}
				if rank == 0 {
					took = append(took, d.Seconds())
				}
				if check != nil {
					check(rank, out)
				}
			}
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return took, nil
}

// probeAllreduce times the two payloads the allreduce workload uses on the
// given groups: microseconds per 1 KiB call and MB/s (payload / time, which
// for two ranks is also the Horovod bus bandwidth) per 2 MiB call.
func probeAllreduce(groups []*collective.Group) (latUs, mbps float64, err error) {
	mk := func(n int) []*tensor.Tensor {
		ts := make([]*tensor.Tensor, len(groups))
		for r := range ts {
			ts[r] = tensor.New(tensor.Float64, n)
		}
		return ts
	}
	small, err := allreduceCalls(groups, "small", mk(arSmallElems), 400, nil)
	if err != nil {
		return 0, 0, err
	}
	big, err := allreduceCalls(groups, "big", mk(arBigElems), 24, nil)
	if err != nil {
		return 0, 0, err
	}
	return median(small) * 1e6, arBigElems * 8 / median(big) / 1e6, nil
}

// runProbes measures every layer probe once, each under a span.
func runProbes(e *env, parent int64) (probeSet, error) {
	p := probeSet{}
	tb := e.tr.buf()
	r := tensor.NewRNG(e.seed*2 + 61)
	span := func(name string, f func() error) error {
		sp := tb.begin("probe:"+name, parent, 0)
		err := f()
		tb.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"gemm", func() error {
			const t = matmulTile
			a := tensor.RandomUniform(tensor.Float32, r.Uint64(), t, t).F32()
			b := tensor.RandomUniform(tensor.Float32, r.Uint64(), t, t).F32()
			c := make([]float32, t*t)
			s := timeCalls(1, func() { gemm.Gemm32(false, false, t, t, t, a, t, b, t, c, t) })
			p[pGemm32] = gemm.Flops(t, t, t) / s / 1e9

			// MatVec in both regimes, every worker's block at once as in a
			// CG iteration: 2048×4096 blocks (128 MiB in all, from DRAM —
			// this one also tells which state the host's memory is in) and
			// the cg workload's own 512×1024 blocks (8 MiB, from L2).
			// Bytes are computed.
			matvec := func(n int) float64 {
				rows := n / hpcWorkers
				blocks, ys := make([][]float64, hpcWorkers), make([][]float64, hpcWorkers)
				for w := range blocks {
					blocks[w] = tensor.RandomUniform(tensor.Float64, r.Uint64(), rows, n).F64()
					ys[w] = make([]float64, rows)
				}
				x := tensor.RandomUniform(tensor.Float64, r.Uint64(), n).F64()
				s := timeCalls(1, func() {
					var wg sync.WaitGroup
					for w := range blocks {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							gemm.MatVec64(rows, n, blocks[w], n, x, ys[w])
						}(w)
					}
					wg.Wait()
				})
				return float64(n*n*8) / s / 1e9
			}
			p[pMatVec], p[pMatVecL2] = matvec(4096), matvec(cgN)
			return nil
		}},
		{"fft", func() error {
			n := (1 << fftLogN) / fftTiles
			src := make([]complex128, n)
			for i := range src {
				src[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
			}
			buf := make([]complex128, n)
			flops := core.FFTFlops(n)
			one := func() (float64, error) {
				var ferr error
				s := timeAround(1, func() { copy(buf, src) }, // transforming in place must not compound
					func() { ferr = errors.Join(ferr, fft.Forward(buf)) }, func() {})
				return flops / s / 1e9, ferr
			}
			var err error
			if p[pFFT], err = one(); err != nil {
				return err
			}
			prev := runtime.GOMAXPROCS(1)
			p[pFFT1], err = one()
			runtime.GOMAXPROCS(prev)
			return err
		}},
		{"session", func() error {
			g := graph.New()
			x := g.Placeholder("x", tensor.Float64, nil)
			g.AddNamedOp("y", "Neg", nil, x)
			sess, err := session.New(g, nil, session.Options{})
			if err != nil {
				return err
			}
			feeds := map[string]*tensor.Tensor{"x": tensor.ScalarF64(1.5)}
			p[pSessionRun] = 1e6 * timeCalls(200, func() {
				if _, rerr := sess.Run(feeds, []string{"y"}, nil); rerr != nil {
					err = rerr
				}
			})
			return err
		}},
		{"collective", func() error {
			groups := collective.NewLoopbackGroups(arRanks, collective.Options{})
			var err error
			p[pLoopLat], p[pLoopMbps], err = probeAllreduce(groups)
			for _, g := range groups {
				g.Close()
			}
			if err != nil {
				return err
			}
			for _, shm := range []bool{false, true} {
				fab, err := newNetFabric(arRanks, shm)
				if err != nil {
					return err
				}
				lat, mbps, err := probeAllreduce(fab.groups)
				fab.close()
				if err != nil {
					return err
				}
				if shm {
					p[pShmMbps] = mbps
				} else {
					p[pTCPLat], p[pTCPMbps] = lat, mbps
				}
			}
			return nil
		}},
		{"rpc", func() error {
			srv := rpc.NewServer()
			defer srv.Close()
			srv.Handle("Echo", func(req []byte) ([]byte, error) { return req, nil })
			srv.HandleStream("EchoStream", func(st *rpc.Stream) error {
				for {
					b, err := st.Recv(nil)
					if err != nil {
						return nil // the client closed
					}
					if err := st.Send(b); err != nil {
						return err
					}
				}
			})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			c := rpc.Dial(addr)
			defer c.Close()
			p[pCallRtt] = 1e6 * timeCalls(50, func() {
				if _, cerr := c.Call("Echo", nil); cerr != nil {
					err = cerr
				}
			})
			frame := []byte{1}
			exchange := func(st *rpc.Stream) {
				if serr := st.Send(frame); serr != nil {
					err = serr
				} else if _, serr := st.Recv(nil); serr != nil {
					err = serr
				}
			}
			// What one generate request pays: open a stream, one frame each
			// way. Closing the stream is not timed.
			var st *rpc.Stream
			p[pStreamOpen] = 1e6 * timeAround(1, func() {}, func() {
				var oerr error
				if st, oerr = c.OpenStream("EchoStream"); oerr != nil {
					err = oerr
					return
				}
				exchange(st)
			}, func() {
				if st != nil {
					st.Close()
				}
			})
			if err != nil {
				return err
			}
			// What one collective chunk pays: a frame each way on a stream
			// that is already open.
			if st, err = c.OpenStream("EchoStream"); err != nil {
				return err
			}
			p[pStreamRtt] = 1e6 * timeCalls(50, func() { exchange(st) })
			st.Close()
			if err != nil {
				return err
			}

			// The paper's STREAM: 16 MB assign_add pushes through a remote op.
			res, err := stream.RunReal(stream.RealConfig{Elements: 4 << 20, Iters: 4})
			if err != nil {
				return err
			}
			p[pCallMbps] = res.MBps
			return nil
		}},
		{"tensor", func() error {
			t := tensor.RandomUniform(tensor.Float64, r.Uint64(), 512<<10) // 4 MiB
			var enc []byte
			var err error
			s := timeCalls(1, func() { enc, err = t.Encode(enc[:0]) })
			if err != nil {
				return err
			}
			p[pEncode] = float64(t.ByteSize()) / s / 1e9
			s = timeCalls(1, func() { _, _, err = tensor.Decode(enc) })
			p[pDecode] = float64(t.ByteSize()) / s / 1e9
			return err
		}},
		{"cluster", func() error {
			lc, err := cluster.StartLocal(map[string]int{"worker": 1})
			if err != nil {
				return err
			}
			defer lc.Close()
			peers := cluster.NewPeers(lc.Spec())
			defer peers.Close()
			dev, x := graph.DeviceSpec{Job: "worker", Task: 0}, []*tensor.Tensor{tensor.ScalarF64(1.5)}
			p[pRemoteOp] = 1e6 * timeCalls(50, func() {
				if _, rerr := peers.RunRemoteOp(dev, "Neg", "probe", nil, []string{"x"}, x); rerr != nil {
					err = rerr
				}
			})
			return err
		}},
		{"batcher", func() error {
			inst, err := setupPredict(e, false)
			if err != nil {
				return err
			}
			in := inst.(*predictInst)
			defer in.close()
			m, err := in.measure(400*time.Millisecond, tb.id(len(tb.spans)-1))
			if err != nil {
				return err
			}
			if m.Failed > 0 {
				return fmt.Errorf("%d of %d requests failed: %s", m.Failed, m.Attempted, m.Failure)
			}
			p[pQueueWait], p[pMeanBatch] = m.Counts["queue_wait_ms_mean"], m.Counts["mean_batch"]
			out, err := in.svc.NewRowOutput(predictModel)
			if err != nil {
				return err
			}
			i := 0
			p[pRowUs] = 1e6 * timeCalls(1000, func() {
				if rerr := in.svc.PredictRowInto(predictModel, in.rows[i%predictRows], out, time.Time{}); rerr != nil {
					err = rerr
				}
				i++
			})
			return err
		}},
		{"engine", func() error {
			in, err := setupGenerate(e, false)
			if err != nil {
				return err
			}
			defer in.close()
			m, err := in.measure(500*time.Millisecond, tb.id(len(tb.spans)-1))
			if err != nil {
				return err
			}
			if m.Failed > 0 {
				return fmt.Errorf("%d of %d sequences failed: %s", m.Failed, m.Attempted, m.Failure)
			}
			p[pEngineTok], p[pEngineTTFT], p[pEngineFill] = m.RatePerS, m.OpMs, m.Counts["tokens_per_step"]
			return nil
		}},
		{"npy", func() error {
			dir := filepath.Join(e.dir, "probe")
			mat := tensor.RandomUniform(tensor.Float32, r.Uint64(), 2*matmulTile, 2*matmulTile)
			store, err := core.SaveMatrixTiles(dir, "P", mat, matmulTile)
			if err != nil {
				return err
			}
			i := 0
			s := timeCalls(4, func() {
				if _, lerr := store.LoadTile(i/2%2, i%2); lerr != nil {
					err = lerr
				}
				i++
			})
			p[pTileLoad] = float64(matmulTile*matmulTile*4) / s / 1e6
			return err
		}},
	}
	for _, st := range steps {
		if err := span(st.name, st.f); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// teleSnapshot is the telemetry registry as a /metricz scrape shows it:
// counters and gauges by name, histograms as <name>_sum and <name>_count,
// label sets of one name added up.
type teleSnapshot map[string]float64

func scrapeTelemetry() teleSnapshot {
	var buf bytes.Buffer
	telemetry.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	snap := teleSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sep := strings.LastIndexByte(line, ' ')
		if sep < 0 {
			continue
		}
		name := line[:sep]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			name = name[:brace]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sep+1:], 64); err == nil && !math.IsNaN(v) {
			snap[name] += v
		}
	}
	return snap
}

// minus returns what changed since before.
func (s teleSnapshot) minus(before teleSnapshot) teleSnapshot {
	d := teleSnapshot{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}
