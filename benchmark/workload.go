package main

import (
	"fmt"
	"time"
)

// env is everything a workload is given: the seed its inputs are generated
// from, a scratch directory inside the checkout, the processor count the run
// was sized for, and the span recorder.
type env struct {
	seed  uint64
	dir   string
	procs int
	tr    *tracer
}

// workload is one named set of inputs plus the loop that drives it. The
// names are fixed by BENCHMARK.json; why is the one-line reason it exists.
type workload struct {
	name string
	why  string
	// loop is "batch" (repetitions back to back), "open" (requests sent on
	// a schedule whatever the replies do) or "closed" (each logical client
	// sends its next request when the previous one is answered); load is
	// its client count or rate.
	loop, load string
	// setup generates the inputs, starts whatever servers the workload
	// needs and warms them up. All of it is what setup_s times.
	setup func(e *env) (instance, error)
	// budget prices one operation of the workload in layer-probe units.
	budget func(m *measurement, p probeSet) []budgetRow
}

// instance is a set-up workload.
type instance interface {
	// measure drives the workload for about d and checks every output.
	// parent is the span the repetitions or requests hang under.
	measure(d time.Duration, parent int64) (*measurement, error)
	close()
}

// namedValue is one workload-specific figure (gflops, solve_s, p99_ms ...):
// the name this repository's issues and README use for it, next to the
// workload-independent metric names BENCHMARK.json gates on.
type namedValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Samples summarises what the value was computed from, when it is a
	// median of per-operation samples.
	Samples *summary `json:"samples,omitempty"`
	Note    string   `json:"note,omitempty"`
}

// measurement is the outcome of one timed phase.
type measurement struct {
	// Attempted and Failed count operations (repetitions, calls, requests,
	// sequences). A refused, expired, errored or wrong operation is failed.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// The three workload-independent end-to-end metrics: median time of one
	// operation, its tail, and work completed per second. What "operation"
	// and "work" mean per workload is in the README's metric table.
	OpMs     float64 `json:"op_ms"`
	TailMs   float64 `json:"tail_ms"`
	RatePerS float64 `json:"rate_per_s"`
	// Named are the same facts under the workload's own names and units.
	Named []namedValue `json:"named"`
	// Counts are exact counts per phase (iterations, steps, batches,
	// collective calls and bytes, engine steps): reported as counts, never
	// as speed-ups.
	Counts map[string]float64 `json:"counts"`
	// Ops is the number of operations OpMs is the median of, and OpUnit what
	// one operation is ("rep", "request" ...).
	Ops     int     `json:"ops"`
	OpUnit  string  `json:"op_unit"`
	WallS   float64 `json:"wall_s"`
	Failure string  `json:"first_failure,omitempty"`
}

// fail records a failed operation and keeps the first reason for the report.
func (m *measurement) fail(format string, args ...any) {
	m.Failed++
	if m.Failure == "" {
		m.Failure = fmt.Sprintf(format, args...)
	}
}

func (m *measurement) named(name, unit string, v float64, samples []float64, note string) {
	nv := namedValue{Name: name, Unit: unit, Value: v, Note: note}
	if len(samples) > 0 {
		s := summarize(samples)
		nv.Samples = &s
	}
	m.Named = append(m.Named, nv)
}

func (m *measurement) namedValue(name string) float64 {
	for _, nv := range m.Named {
		if nv.Name == name {
			return nv.Value
		}
	}
	return 0
}

// batchLoop is the timed phase of the batch workloads: run rep back to back
// until d has passed (always at least twice), timing each call's wall clock.
// rep returns the operation time the application itself reports and a check
// that verifies the output into m; the check runs after the call's clock and
// span have stopped. The loop fills the generic metrics: op_ms is the median
// reported time, tail_ms its upper quartile — ten to forty repetitions
// support no higher percentile — and rate_per_s is work per wall second of
// the calls, so it also sees what the reported time leaves out (tile
// writes, variable initialisation).
func batchLoop(e *env, d time.Duration, parent int64, m *measurement, workPerRep float64,
	rep func(i int) (reported float64, check func(), err error)) ([]float64, error) {
	tb := e.tr.buf()
	var reportedS []float64
	var wall time.Duration
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		t0 := time.Now()
		sp := tb.begin("rep", parent, int64(i+1))
		reported, check, err := rep(i)
		tb.end(sp)
		wall += time.Since(t0)
		if err != nil {
			return nil, err
		}
		m.Attempted++
		reportedS = append(reportedS, reported)
		check()
	}
	m.Ops, m.OpUnit = len(reportedS), "rep"
	m.WallS = time.Since(start).Seconds()
	m.OpMs = median(reportedS) * 1e3
	m.TailMs = upperQuartile(reportedS) * 1e3
	m.RatePerS = workPerRep * float64(len(reportedS)) / wall.Seconds()
	return reportedS, nil
}

// workloads lists the eight workloads in the order they are run and
// reported.
func workloads() []*workload {
	return []*workload{
		matmulWorkload(), cgWorkload(), fftWorkload(), sgdWorkload(), allreduceWorkload(),
		predictSparseWorkload(), predictBurstWorkload(), generateWorkload(),
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
