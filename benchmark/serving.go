package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tfhpc/internal/serving"
	"tfhpc/internal/tensor"
)

// The two predict workloads share one service — a linear model of 256
// features behind the micro-batcher at its defaults (flush at 32 rows or
// after 2 ms, 2 runners) — and use it in the two ways that pull the
// batcher's design in opposite directions: sparse arrivals that never fill a
// batch, and a burst that always does.

const (
	predictFeatures = 256
	predictRows     = 1024 // distinct request rows, cycled
	sparseRate      = 1000 // requests per second, open loop
	// sparseSenders is the number of goroutines that carry open-loop
	// requests: far more than rate × latency, so a request never waits for
	// a free sender unless the service itself has stalled.
	sparseSenders = 64
	burstClients  = 64 // logical clients (goroutines), closed loop
	windowLen     = time.Second
)

func predictSparseWorkload() *workload {
	return &workload{
		name: "predict_sparse", loop: "open", load: fmt.Sprintf("%d req/s", sparseRate),
		why:    "Latency use of the batcher: 1000 req/s open loop, batches never fill, every request pays the flush window",
		setup:  func(e *env) (instance, error) { return setupPredict(e, false) },
		budget: predictBudget,
	}
}

func predictBurstWorkload() *workload {
	return &workload{
		name: "predict_burst", loop: "closed", load: fmt.Sprintf("%d clients", burstClients),
		why:    "Throughput use of the batcher: 64 closed-loop clients keep batches full; session.Run and the batched MatVec dominate",
		setup:  func(e *env) (instance, error) { return setupPredict(e, true) },
		budget: predictBudget,
	}
}

type predictInst struct {
	e     *env
	burst bool
	svc   *serving.Service
	rows  []*tensor.Tensor
	// want[i] is row i's answer through PredictRowInto, the service's
	// batcher-free path; the batcher must return exactly these bits.
	want  []float64
	phase uint64 // timed phases run so far
}

const predictModel = "bench"

func setupPredict(e *env, burst bool) (instance, error) {
	in := &predictInst{e: e, burst: burst, svc: serving.NewService(serving.NewRegistry(), serving.BatchOptions{})}
	r := tensor.NewRNG(e.seed*2 + 41)
	uniform := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()*2 - 1
		}
		return v
	}
	mv, err := serving.NewLinear(predictModel, 1, tensor.FromF64(tensor.Shape{predictFeatures}, uniform(predictFeatures)))
	if err == nil {
		_, err = in.svc.ServeModel(mv)
	}
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	out, err := in.svc.NewRowOutput(predictModel)
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	for i := 0; i < predictRows; i++ {
		row := tensor.FromF64(tensor.Shape{predictFeatures}, uniform(predictFeatures))
		if err := in.svc.PredictRowInto(predictModel, row, out, time.Time{}); err != nil {
			in.svc.Close()
			return nil, err
		}
		in.rows, in.want = append(in.rows, row), append(in.want, out.F64()[0])
	}
	// Warm-up: the same load, briefly.
	if burst {
		in.closedLoop(3000, 0, 0, nil)
	} else {
		openLoop(poissonSchedule(e.seed*2+42, sparseRate, 300*time.Millisecond), sparseSenders,
			func(i int) bool { return in.predict(i) == "" })
	}
	return in, nil
}

// predict sends request i and returns "" when the answer came back with
// exactly the expected bits, else what went wrong.
func (in *predictInst) predict(i int) string {
	k := i % predictRows
	out, err := in.svc.Predict(predictModel, in.rows[k], time.Time{})
	switch {
	case err != nil:
		return err.Error()
	case out.NumElements() != 1 || math.Float64bits(out.F64()[0]) != math.Float64bits(in.want[k]):
		return fmt.Sprintf("row %d answered %v, PredictRowInto gives %v", k, out.F64(), in.want[k])
	}
	return ""
}

func (in *predictInst) measure(d time.Duration, parent int64) (*measurement, error) {
	m := &measurement{Counts: map[string]float64{}}
	snap0, tele0 := in.svc.Snapshots()[0], scrapeTelemetry()
	start := time.Now()
	if in.burst {
		in.measureBurst(d, parent, m)
	} else {
		in.measureSparse(d, parent, m)
	}
	m.WallS = time.Since(start).Seconds()
	snap1, tele := in.svc.Snapshots()[0], scrapeTelemetry().minus(tele0)

	batches := float64(snap1.Batches - snap0.Batches)
	m.Counts["rows"] = float64(snap1.Rows - snap0.Rows)
	m.Counts["batches"] = batches
	m.Counts["mean_batch"] = m.Counts["rows"] / batches
	m.Counts["rejected"] = float64(snap1.Rejected - snap0.Rejected)
	m.Counts["expired"] = float64(snap1.Expired - snap0.Expired)
	m.Counts["queue_wait_ms_mean"] = tele["tfhpc_batcher_queue_wait_seconds_sum"] / tele["tfhpc_batcher_queue_wait_seconds_count"] * 1e3
	return m, nil
}

// measureSparse is the open loop: requests leave on an absolute schedule and
// each is timed from the moment it was due, so a stall is charged to every
// request scheduled during it.
func (in *predictInst) measureSparse(d time.Duration, parent int64, m *measurement) {
	var mu sync.Mutex
	in.phase++ // a fresh schedule per phase, all from the seed
	res := openLoop(poissonSchedule(in.e.seed*2+43+in.phase, sparseRate, d), sparseSenders, func(i int) bool {
		why := in.predict(i)
		if why != "" {
			mu.Lock()
			m.fail("predict_sparse: %s", why)
			mu.Unlock()
		}
		return why == ""
	})
	res.record(in.e.tr, parent)
	m.Attempted = len(res.latency)
	var all []float64
	windows := make([][]float64, int(d/windowLen)+1)
	for i, l := range res.latency {
		if !math.IsNaN(l) {
			all = append(all, l)
			w := int(res.due[i] / windowLen) // by scheduled time
			windows[w] = append(windows[w], l)
		}
	}
	m.Ops, m.OpUnit = len(all), "request"
	m.OpMs = median(all) * 1e3
	m.TailMs = windowedTail(windows, 99) * 1e3
	m.RatePerS = float64(len(all)) / res.elapsed.Seconds()
	m.named("p50_ms", "ms", m.OpMs, all, "from each request's scheduled send time")
	m.named("p99_ms", "ms", m.TailMs, nil, "median over 1-s windows of the window's p99")
	if p, v, ok := highestSupported(all); ok {
		m.named("whole_run_tail_ms", "ms", v*1e3, nil, fmt.Sprintf("whole-run p%g, ungated", p))
	}
	m.named("gen_late_p99_ms", "ms", percentile(sortedCopy(res.late), 99)*1e3, res.late,
		"how late the generator sent: p99 of (actual − scheduled) send time; already inside the latencies above")
}

// measureBurst is the closed loop: each logical client sends its next
// request when the previous one is answered.
func (in *predictInst) measureBurst(d time.Duration, parent int64, m *measurement) {
	lat := in.closedLoop(0, d, parent, m)
	// The window the loop stopped in is partial; a phase shorter than one
	// window has nothing else.
	if len(lat) > 1 {
		lat = lat[:len(lat)-1]
	}
	var all, perWindow []float64
	for _, w := range lat {
		all = append(all, w...)
		perWindow = append(perWindow, float64(len(w))/math.Min(windowLen.Seconds(), d.Seconds()))
	}
	m.Ops, m.OpUnit = len(all), "request"
	m.OpMs = median(all) * 1e3
	m.TailMs = windowedTail(lat, 99) * 1e3
	m.RatePerS = median(perWindow)
	m.named("rows_per_s", "1/s", m.RatePerS, perWindow, "median over 1-s windows of rows answered")
	m.named("p50_ms", "ms", m.OpMs, nil, "request latency at 64 clients")
	m.named("p99_ms", "ms", m.TailMs, nil, "median over 1-s windows of the window's p99")
	if p, v, ok := highestSupported(all); ok {
		m.named("whole_run_tail_ms", "ms", v*1e3, nil, fmt.Sprintf("whole-run p%g, ungated", p))
	}
}

// closedLoop drives burstClients logical clients until total requests are
// done (total > 0) or d has passed, and returns the latencies of the
// correct answers grouped by the 1-s window they completed in. Attempts and
// failures go into m when it is set.
func (in *predictInst) closedLoop(total int64, d time.Duration, parent int64, m *measurement) [][]float64 {
	var next atomic.Int64
	perClient := make([][][]float64, burstClients)
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < burstClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tb := in.e.tr.buf()
			var windows [][]float64
			var failed []string
			attempted := 0
			for {
				i := next.Add(1)
				t0 := time.Now()
				if total > 0 && i > total || total == 0 && t0.Sub(start) >= d {
					break
				}
				sp := tb.begin("request", parent, i)
				why := in.predict(int(i))
				tb.end(sp)
				end := time.Now()
				attempted++
				if why != "" {
					failed = append(failed, why)
					continue
				}
				w := int(end.Sub(start) / windowLen)
				for len(windows) <= w {
					windows = append(windows, nil)
				}
				windows[w] = append(windows[w], end.Sub(t0).Seconds())
			}
			perClient[c] = windows
			if m != nil {
				mu.Lock()
				m.Attempted += attempted
				for _, why := range failed {
					m.fail("predict_burst: %s", why)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	merged := [][]float64{nil}
	for _, windows := range perClient {
		for w, lat := range windows {
			for len(merged) <= w {
				merged = append(merged, nil)
			}
			merged[w] = append(merged[w], lat...)
		}
	}
	return merged
}

func (in *predictInst) close() { in.svc.Close() }

func predictBudget(m *measurement, p probeSet) []budgetRow {
	return []budgetRow{
		{Layer: "batcher", What: "mean admission-queue wait in this run (tfhpc_batcher_queue_wait_seconds)", Seconds: m.Counts["queue_wait_ms_mean"] / 1e3},
		callRow("session", "the one Run the request's batch is answered by", 1, p[pSessionRun]),
		callRow("serving", "row kernels of the batch the request shares (mean batch, PredictRowInto cost)", m.Counts["mean_batch"], p[pRowUs]),
	}
}

// ---- the open-loop generator ----------------------------------------------

// spinWindow is how long before a send time the generator stops sleeping and
// starts yielding in a loop: a plain time.Sleep overshoots by most of a
// millisecond on the reference host, which at 1000 req/s is a whole period.
const spinWindow = 1200 * time.Microsecond

// sleepUntil returns as close to t as the scheduler allows without holding a
// processor against runnable work.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openResult is what an open-loop run observed. latency[i] is request i's
// time from its scheduled send to its answer, in seconds, NaN when the
// request failed; late[i] is how long after its schedule it was handed to a
// sender.
type openResult struct {
	due           []time.Duration // the schedule, relative to start
	latency, late []float64
	elapsed       time.Duration
	start         time.Time
}

// poissonSchedule draws the send times of rate·d independent users: sorted
// uniform draws from the seed over [0, d), which is a Poisson process given
// its count — so every seed offers the same number of requests. (Evenly
// spaced arrivals would beat against the batcher's fixed flush window and
// make the median latency jump between two modes.)
func poissonSchedule(seed uint64, rate int, d time.Duration) []time.Duration {
	r := tensor.NewRNG(seed)
	due := make([]time.Duration, int(int64(rate)*int64(d)/int64(time.Second)))
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends one request per entry of the absolute schedule due:
// request i leaves at start + due[i] whatever happened to the requests
// before it. One goroutine keeps the schedule; senders goroutines take due
// requests and call do. A request's clock starts when it was due, not when a
// sender got to it, so time spent waiting behind a stalled system — or a
// late generator — is counted in its latency instead of being silently
// omitted.
func openLoop(due []time.Duration, senders int, do func(i int) bool) *openResult {
	n := len(due)
	res := &openResult{due: due, latency: make([]float64, n), late: make([]float64, n)}
	ready := make(chan int, n) // the whole schedule fits, so keeping it never blocks on a slow sender
	var wg sync.WaitGroup
	res.start = time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				ok := do(i)
				res.latency[i] = time.Since(res.start.Add(due[i])).Seconds()
				if !ok {
					res.latency[i] = math.NaN()
				}
			}
		}()
	}
	for i, at := range due {
		sleepUntil(res.start.Add(at))
		res.late[i] = time.Since(res.start.Add(at)).Seconds()
		ready <- i
	}
	close(ready)
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return res
}

// record writes one span per request, from its scheduled send to its answer.
func (r *openResult) record(tr *tracer, parent int64) {
	if !tr.on.Load() {
		return
	}
	tb := tr.buf()
	for i, l := range r.latency {
		if math.IsNaN(l) {
			continue
		}
		sp := tb.begin("request", parent, int64(i+1))
		tb.spans[sp].Start = int64(r.start.Add(r.due[i]).Sub(tr.t0))
		tb.spans[sp].End = tb.spans[sp].Start + int64(l*1e9)
	}
}
