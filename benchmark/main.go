// Command benchmark is this repository's one benchmark: eight named
// workloads over the whole stack — the paper's three HPC applications,
// cluster SGD, a raw allreduce, and three serving loads — each reporting the
// same four end-to-end metrics with tracing off, and, in a separate traced
// pass, one probe per layer plus a budget that prices the workload's
// operation in those probes. See README.md in this directory.
//
// One run measures one workload (that is what BENCHMARK.json's command
// does); without -workload, or with -runs, it runs itself once per workload
// and seed and stores every run in one result file, which -compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"tfhpc/internal/gemm"
)

// metricDef declares one metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off. They are
// deliberately workload-independent — median time of one operation, work
// completed per second, set-up time — because a regression gate needs the
// same names on every workload; what an operation and a unit of work are for
// each workload is in the README, and each run also prints the same facts
// under the workload's own names (gflops, solve_s, p99_ms ...).
//
// The bounds are the widest the benchmark contract allows. On the reference
// host (a shared 2-vCPU VM) the speed of scalar and memory-bound code steps
// between levels a factor of two apart for seconds to hours at a time, and
// A/A sets taken while it is quiet still spread by up to 10% (README, "A/A
// spread"); a tighter bound would report host noise as regressions. The
// tail (tail_ms) spreads 12–17% even then, so it is reported with the
// per-layer metrics, ungated, instead of listed here with a bound it cannot
// hold.
var endToEnd = []metricDef{
	{"op_ms", "ms", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced pass: the layer probes, then three
// figures about the traced workload itself.
var perLayer = []metricDef{
	{Name: pGemm32, Unit: "Gflop/s", Better: "higher"},
	{Name: pMatVec, Unit: "GB/s", Better: "higher"},
	{Name: pMatVecL2, Unit: "GB/s", Better: "higher"},
	{Name: pFFT, Unit: "Gflop/s", Better: "higher"},
	{Name: pFFT1, Unit: "Gflop/s", Better: "higher"},
	{Name: pSessionRun, Unit: "us", Better: "lower"},
	{Name: pLoopLat, Unit: "us", Better: "lower"},
	{Name: pLoopMbps, Unit: "MB/s", Better: "higher"},
	{Name: pTCPLat, Unit: "us", Better: "lower"},
	{Name: pTCPMbps, Unit: "MB/s", Better: "higher"},
	{Name: pShmMbps, Unit: "MB/s", Better: "higher"},
	{Name: pCallRtt, Unit: "us", Better: "lower"},
	{Name: pCallMbps, Unit: "MB/s", Better: "higher"},
	{Name: pStreamOpen, Unit: "us", Better: "lower"},
	{Name: pStreamRtt, Unit: "us", Better: "lower"},
	{Name: pEncode, Unit: "GB/s", Better: "higher"},
	{Name: pDecode, Unit: "GB/s", Better: "higher"},
	{Name: pRemoteOp, Unit: "us", Better: "lower"},
	{Name: pQueueWait, Unit: "ms", Better: "lower"},
	{Name: pMeanBatch, Unit: "rows", Better: "higher"},
	{Name: pRowUs, Unit: "us", Better: "lower"},
	{Name: pEngineTok, Unit: "1/s", Better: "higher"},
	{Name: pEngineTTFT, Unit: "ms", Better: "lower"},
	{Name: pEngineFill, Unit: "tokens", Better: "higher"},
	{Name: pTileLoad, Unit: "MB/s", Better: "higher"},
	{Name: mTail, Unit: "ms", Better: "lower"},
	{Name: mParallelEff, Unit: "ratio", Better: "higher"},
	{Name: mTraceOverhead, Unit: "%", Better: "lower"},
	{Name: mUnattributed, Unit: "%", Better: "lower"},
}

const (
	// mTail is the traced workload's tail_ms in the spans-off phase: the
	// median over 1-s windows of the window's p99 for the serving loops and
	// the allreduce, the upper quartile of the repetitions for batch loops.
	mTail = "tail_ms"
	// mParallelEff is rate_per_s at all processors over (processors × the
	// rate at GOMAXPROCS=1): the paper's strong-scaling view of the traced
	// workload.
	mParallelEff = "parallel_eff"
	// mTraceOverhead is how much slower the median operation is with the
	// benchmark's spans being recorded than without, in the same process.
	mTraceOverhead = "trace_overhead_pct"
	// mUnattributed is the share of the traced operation time the layer
	// budget does not explain.
	mUnattributed = "unattributed_pct"
)

// metricValue is one metric as the last line of a run prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostRecord is what a result needs to be reproduced or distrusted.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"gemm_kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

// tracedRecord is the traced pass of one workload.
type tracedRecord struct {
	Untraced *measurement        `json:"untraced"`
	Traced   *measurement        `json:"traced"`
	OneProc  *measurement        `json:"gomaxprocs_1"`
	Probes   probeSet            `json:"probes"`
	Budget   []budgetRow         `json:"budget"`
	Self     map[string]selfTime `json:"span_self_time"`
}

// runRecord is one run of one workload, complete.
type runRecord struct {
	Workload string                 `json:"workload"`
	Why      string                 `json:"why"`
	Loop     string                 `json:"loop"`
	Load     string                 `json:"load"`
	Seed     uint64                 `json:"seed"`
	Seconds  int                    `json:"seconds"`
	Trace    bool                   `json:"trace"`
	Host     hostRecord             `json:"host"`
	WallS    float64                `json:"wall_s"`
	SetupS   []float64              `json:"setup_s,omitempty"`
	Result   *measurement           `json:"result,omitempty"`
	Traced   *tracedRecord          `json:"traced_pass,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
	Correct  bool                   `json:"correct"`
}

// setupRepeats is how often a run sets its workload up: set-up takes from a
// few milliseconds to a second, so one sample would be mostly noise.
const setupRepeats = 3

func main() {
	workloadName := flag.String("workload", "", "workload to run; empty runs every workload in a child process each")
	seed := flag.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 8, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced pass (per-layer metrics) instead of the end-to-end pass")
	runs := flag.Int("runs", 1, "with no -workload: end-to-end runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "with no -workload: result file (default benchmark/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workloadName == "":
		if *out == "" {
			*out = filepath.Join(root, "benchmark", "out", "result.json")
		}
		if err := runAll(root, *seed, *seconds, *runs, *out); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		rec, err := runOne(root, w, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// sizeToHost sets GOMAXPROCS to the processor count, at most four: the
// workloads are sized for a small host, and all load comes from this one
// process.
func sizeToHost() int {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	return procs
}

func hostInfo(root string, procs int) hostRecord {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostRecord{NProc: runtime.NumCPU(), GoMaxProcs: procs, Kernel: gemm.KernelName(),
		GoVersion: runtime.Version(), Commit: commit}
}

// runOne measures one workload in this process, prints what it found and, as
// the last line of standard output, the result object the driver reads.
func runOne(root string, w *workload, seed uint64, seconds int, traced bool) (*runRecord, error) {
	start := time.Now()
	procs := sizeToHost()
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir, procs: procs, tr: newTracer()}
	rec := &runRecord{Workload: w.name, Why: w.why, Loop: w.loop, Load: w.load, Seed: seed, Seconds: seconds,
		Trace: traced, Host: hostInfo(root, procs), Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s [%s loop, %s] seed=%d seconds=%d trace=%v\n", w.name, w.loop, w.load, seed, seconds, traced)
	fmt.Printf("  host: nproc=%d GOMAXPROCS=%d gemm=%s %s commit=%s\n", rec.Host.NProc, procs, rec.Host.Kernel, rec.Host.GoVersion, rec.Host.Commit)
	fmt.Printf("  load generation: this one process at GOMAXPROCS=%d, so at most %d threads run Go code at once; logical clients are goroutines\n", procs, procs)

	var final *measurement
	if traced {
		final, err = runTracedPass(root, w, e, seconds, rec)
	} else {
		final, err = runEndToEnd(w, e, seconds, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.WallS = time.Since(start).Seconds()
	rec.Correct = final.Failed == 0

	full, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s%s\n", recordPrefix, full)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, final.Attempted, final.Failed, rec.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", last)
	return rec, nil
}

// recordPrefix marks the line that carries a run's full record for runAll.
const recordPrefix = "RECORD "

func setMetrics(rec *runRecord, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// runEndToEnd is the pass the regression bounds apply to: tracing off,
// set-up timed setupRepeats times, one timed phase.
func runEndToEnd(w *workload, e *env, seconds int, rec *runRecord) (*measurement, error) {
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Collect the previous instance now, so neither the next set-up nor
		// the timed phase shares the caches with a dead copy of the inputs.
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	m, err := inst.measure(time.Duration(seconds)*time.Second, 0)
	inst.close()
	if err != nil {
		return nil, err
	}
	rec.Result = m
	setup := summarize(rec.SetupS)
	setMetrics(rec, endToEnd, map[string]float64{
		"op_ms": m.OpMs, "rate_per_s": m.RatePerS, "setup_s": setup.Median})
	printMeasurement(m)
	fmt.Printf("  %-26s %12.6g s     n=%d q1=%.4g q3=%.4g (input generation, server start, warm-up)\n",
		"setup_s", setup.Median, setup.N, setup.Q1, setup.Q3)
	return m, nil
}

func printMeasurement(m *measurement) {
	fmt.Printf("  operations: %d attempted, %d failed", m.Attempted, m.Failed)
	if m.Failure != "" {
		fmt.Printf(" (first: %s)", m.Failure)
	}
	fmt.Printf("; timed phase %.2f s\n", m.WallS)
	fmt.Printf("  %-26s %12.6g ms    median of %d × %s\n", "op_ms", m.OpMs, m.Ops, m.OpUnit)
	fmt.Printf("  %-26s %12.6g ms    (not gated)\n", "tail_ms", m.TailMs)
	fmt.Printf("  %-26s %12.6g 1/s\n", "rate_per_s", m.RatePerS)
	for _, nv := range m.Named {
		line := fmt.Sprintf("  %-26s %12.6g %-5s", nv.Name, nv.Value, nv.Unit)
		if nv.Samples != nil {
			line += fmt.Sprintf(" n=%d q1=%.4g med=%.4g q3=%.4g", nv.Samples.N, nv.Samples.Q1, nv.Samples.Median, nv.Samples.Q3)
		}
		if nv.Note != "" {
			line += " — " + nv.Note
		}
		fmt.Println(line)
	}
	fmt.Printf("  counts:")
	for _, k := range slices.Sorted(maps.Keys(m.Counts)) {
		fmt.Printf(" %s=%.6g", k, m.Counts[k])
	}
	fmt.Println()
}

// runTracedPass sets the workload up once and runs three short phases of it —
// spans off, spans on, spans off at GOMAXPROCS=1 — then every layer probe,
// and prints the probe table and the workload's layer budget.
func runTracedPass(root string, w *workload, e *env, seconds int, rec *runRecord) (*measurement, error) {
	tr, tb := e.tr, e.tr.buf()
	tr.on.Store(true)
	rootSp := tb.begin("workload:"+w.name, 0, 0)
	phase := time.Duration(seconds) * time.Second / 4

	sp := tb.begin("setup", tb.id(rootSp), 0)
	inst, err := w.setup(e)
	tb.end(sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	run := func(name string, spans bool, procs int) (*measurement, error) {
		sp := tb.begin(name, tb.id(rootSp), 0)
		tr.on.Store(spans)
		prev := runtime.GOMAXPROCS(procs)
		m, err := inst.measure(phase, tb.id(sp))
		runtime.GOMAXPROCS(prev)
		tr.on.Store(true)
		tb.end(sp)
		return m, err
	}
	t := &tracedRecord{}
	if t.Untraced, err = run("phase:spans_off", false, e.procs); err == nil {
		if t.Traced, err = run("phase:spans_on", true, e.procs); err == nil {
			t.OneProc, err = run("phase:gomaxprocs_1", false, 1)
		}
	}
	inst.close()
	if err != nil {
		return nil, err
	}
	sp = tb.begin("probes", tb.id(rootSp), 0)
	t.Probes, err = runProbes(e, tb.id(sp))
	tb.end(sp)
	if err != nil {
		return nil, err
	}
	tb.end(rootSp)
	tr.on.Store(false)

	opS := t.Traced.OpMs / 1e3
	t.Budget = w.budget(t.Traced, t.Probes)
	values := map[string]float64{
		mTail:          t.Untraced.TailMs,
		mParallelEff:   t.Untraced.RatePerS / (float64(e.procs) * t.OneProc.RatePerS),
		mTraceOverhead: 100 * (t.Traced.OpMs/t.Untraced.OpMs - 1),
		mUnattributed:  100 * unattributedShare(t.Budget, opS),
	}
	for k, v := range t.Probes {
		values[k] = v
	}
	setMetrics(rec, perLayer, values)
	spans := tr.all()
	t.Self = selfTimes(spans)
	rec.Traced = t

	fmt.Println("phase: spans off")
	printMeasurement(t.Untraced)
	fmt.Println("phase: spans on")
	printMeasurement(t.Traced)
	fmt.Println("phase: spans off, GOMAXPROCS=1")
	printMeasurement(t.OneProc)
	fmt.Printf("tracing overhead: op_ms %.6g traced vs %.6g untraced = %+.2f%% (same process, consecutive phases of %v)\n",
		t.Traced.OpMs, t.Untraced.OpMs, values[mTraceOverhead], phase)
	fmt.Printf("parallel_eff: rate_per_s %.6g at GOMAXPROCS=%d / (%d × %.6g at GOMAXPROCS=1) = %.3f\n",
		t.Untraced.RatePerS, e.procs, e.procs, t.OneProc.RatePerS, values[mParallelEff])
	fmt.Println("layer probes (direct timed calls into each package, this process, after the workload):")
	for _, d := range perLayer {
		fmt.Printf("  %-30s %12.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	printBudget(os.Stdout, w.name, t.Budget, opS, t.Traced.OpUnit)

	path := filepath.Join(root, "benchmark", "out", "trace.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(path, w.name, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans recorded; written to %s\n", len(spans), path)

	// The pass is correct when every phase was.
	total := &measurement{}
	for _, m := range []*measurement{t.Untraced, t.Traced, t.OneProc} {
		total.Attempted += m.Attempted
		total.Failed += m.Failed
	}
	return total, nil
}
