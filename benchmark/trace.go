package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program: set-up, one repetition or request, or one layer probe. Spans
// of one request share Req; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Req    int64              `json:"req,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. It records only while on
// is set, so the end-to-end pass pays one atomic load per span site. Each
// recording goroutine owns a spanBuf; nothing on the request path takes a
// lock.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span storage.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf hands out a buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index in this buffer, or -1 while the
// tracer is off.
func (b *spanBuf) begin(name string, parent, req int64) int {
	if !b.tr.on.Load() {
		return -1
	}
	b.spans = append(b.spans, span{
		ID: b.tr.nextID.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(b.tr.t0)),
	})
	return len(b.spans) - 1
}

// end closes the span begin returned.
func (b *spanBuf) end(i int) {
	if i >= 0 {
		b.spans[i].End = int64(time.Since(b.tr.t0))
	}
}

// id returns the span's identifier for use as a child's parent (0 when the
// span was not recorded).
func (b *spanBuf) id(i int) int64 {
	if i < 0 {
		return 0
	}
	return b.spans[i].ID
}

// count attaches an exact count (calls, bytes, iterations) to a span, so
// ratios are taken where the work happened.
func (b *spanBuf) count(i int, key string, v float64) {
	if i < 0 {
		return
	}
	if b.spans[i].Counts == nil {
		b.spans[i].Counts = map[string]float64{}
	}
	b.spans[i].Counts[key] += v
}

// all merges every buffer, ordered by start time. Call it only after the
// recording goroutines have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTime is a span name's aggregate: how many spans carried it and their
// total self time — duration minus the part of the interval its child spans
// cover (overlapping children are not subtracted twice).
type selfTime struct {
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
}

func selfTimes(spans []span) map[string]selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		agg := out[s.Name]
		agg.Count++
		agg.SelfS += float64(s.End-s.Start-covered) / 1e9
		out[s.Name] = agg
	}
	return out
}

// maxSpansPerName bounds what is written to disk: a traced serving pass
// records a span per request, and the aggregate (kept in full) is what the
// budget uses.
const maxSpansPerName = 2000

// writeTrace stores the spans as JSON, at most maxSpansPerName of each name,
// with the full per-name aggregate and the number of spans left out.
func writeTrace(path, workload string, spans []span) error {
	kept := make([]span, 0, len(spans))
	seen := map[string]int{}
	for _, s := range spans {
		if seen[s.Name]++; seen[s.Name] <= maxSpansPerName {
			kept = append(kept, s)
		}
	}
	data, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Dropped  int                 `json:"spans_not_written"`
		Self     map[string]selfTime `json:"self_time_by_name"`
		Spans    []span              `json:"spans"`
	}{workload, len(spans) - len(kept), selfTimes(spans), kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
