// Distributed trace spans. A span is one timed interval in one process;
// trace/span ids ride the rpc request frame (fields 4/5, next to the PR 4
// deadline budget in field 3) and the collective stream-edge header (after
// the PR 7 epoch), so one routed predict or one allreduce renders as a
// single cross-process trace. Export is Chrome trace-event JSON: each
// process dumps its own file (-trace-out on the binaries), the files
// concatenate into one {"traceEvents": [...]} document, and Perfetto draws
// the cross-process edges from flow events ("s"/"f" pairs sharing an id).
//
// Tracing is opt-in (off until Enable or TFHPC_TRACE_OUT); disabled-mode
// span calls are one atomic load returning a nil *Span, and every Span
// method is nil-safe, so instrumented hot paths cost nothing when idle.
package telemetry

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext carries the ids that cross process boundaries.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Span is one in-flight timed interval. A nil *Span (tracing disabled) is
// valid: every method no-ops.
type Span struct {
	name   string
	sc     SpanContext
	parent uint64
	start  time.Time
	lane   uint32 // from NewLane; 0 draws the span on its trace's lane
	args   [][2]string
}

type traceEvent struct {
	name   string
	ph     byte // 'X' span, 'i' instant, 's'/'f' flow, 'M' lane name
	ts     time.Time
	dur    time.Duration
	tid    uint32
	flowID uint64
	sc     SpanContext
	parent uint64
	args   [][2]string
}

// maxTraceEvents bounds the events a process keeps; each one past it is
// dropped and counted, in tfhpc_trace_dropped_total and in the dumped file.
const maxTraceEvents = 1 << 20

// traceCap is the bound record enforces, under tracer.mu: maxTraceEvents,
// lowered only by tests.
var traceCap = maxTraceEvents

var mTraceDropped = NewCounter("tfhpc_trace_dropped_total",
	"Trace events not recorded because the trace buffer was full.")

var tracer struct {
	enabled  atomic.Bool
	ids      atomic.Uint64
	lanes    atomic.Uint32
	mu       sync.Mutex
	events   []traceEvent
	dropped  int64 // events the full buffer refused
	procName string
	outPath  string
}

func init() {
	if p := os.Getenv("TFHPC_TRACE_OUT"); p != "" {
		SetTraceOut(p)
	}
}

// Enable turns span recording on. Safe to call more than once.
func Enable() {
	if tracer.enabled.Swap(true) {
		return
	}
	// Seed the id counter so two processes enabled in the same nanosecond
	// still mint disjoint ids: pid in the high bits, wall time below.
	tracer.ids.Store(uint64(os.Getpid())<<40 ^ uint64(time.Now().UnixNano()))
}

// Enabled reports whether spans are being recorded.
func Enabled() bool { return tracer.enabled.Load() }

// SetProcessName labels this process's lane group in the merged trace.
func SetProcessName(name string) {
	tracer.mu.Lock()
	tracer.procName = name
	tracer.mu.Unlock()
}

// SetTraceOut enables tracing and records where DumpConfigured should write.
func SetTraceOut(path string) {
	Enable()
	tracer.mu.Lock()
	tracer.outPath = path
	tracer.mu.Unlock()
}

// TraceOutPath returns the configured dump path ("" when unset).
func TraceOutPath() string {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	return tracer.outPath
}

// DumpConfigured writes the trace to the path given to SetTraceOut (or the
// TFHPC_TRACE_OUT environment). It returns the path written, or "" when
// tracing was never configured.
func DumpConfigured() (string, error) {
	path := TraceOutPath()
	if path == "" {
		return "", nil
	}
	return path, WriteTraceFile(path)
}

func newID() uint64 {
	id := tracer.ids.Add(1)
	if id == 0 { // 0 means "no trace" on the wire
		id = tracer.ids.Add(1)
	}
	return id
}

// lane folds a trace id onto a Perfetto thread lane. All spans of one trace
// share a lane inside a process, so nesting renders correctly while
// concurrent traces don't interleave on one track.
func lane(trace uint64) uint32 {
	return uint32(trace%999983) + 1
}

// NewLane returns a lane of its own, labelled name in the Chrome file, for
// spans that draw apart from their trace's lane: a Session draws each device
// of a Run on one. Lanes from NewLane start above every lane a trace id
// folds onto, so no other span shares them. Returns 0 when disabled.
func NewLane(name string) uint32 {
	if !tracer.enabled.Load() {
		return 0
	}
	l := 1<<20 + tracer.lanes.Add(1)
	record(traceEvent{name: "thread_name", ph: 'M', ts: time.Now(), tid: l, args: [][2]string{{"name", name}}})
	return l
}

func record(ev traceEvent) {
	tracer.mu.Lock()
	if len(tracer.events) >= traceCap {
		tracer.dropped++
		mTraceDropped.Inc()
	} else {
		tracer.events = append(tracer.events, ev)
	}
	tracer.mu.Unlock()
}

// StartRoot begins a new trace in this process. Returns nil when disabled.
func StartRoot(name string) *Span {
	if !tracer.enabled.Load() {
		return nil
	}
	trace := newID()
	return &Span{name: name, sc: SpanContext{Trace: trace, Span: trace}, start: time.Now()}
}

// StartChild begins a span under a (possibly remote) parent. A zero parent
// starts a fresh root. Returns nil when disabled.
func StartChild(parent SpanContext, name string) *Span {
	if !tracer.enabled.Load() {
		return nil
	}
	if !parent.Valid() {
		return StartRoot(name)
	}
	return &Span{name: name, sc: SpanContext{Trace: parent.Trace, Span: newID()}, parent: parent.Span, start: time.Now()}
}

// Child begins a span under s. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return StartChild(s.sc, name)
}

// OnLane draws s on lane l (from NewLane) instead of its trace's lane.
// Nil-safe; returns s for chaining.
func (s *Span) OnLane(l uint32) *Span {
	if s != nil {
		s.lane = l
	}
	return s
}

// Arg attaches one key/value annotation. Nil-safe; returns s for chaining.
func (s *Span) Arg(k, v string) *Span {
	if s != nil {
		s.args = append(s.args, [2]string{k, v})
	}
	return s
}

// End records the span. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	tid := s.lane
	if tid == 0 {
		tid = lane(s.sc.Trace)
	}
	record(traceEvent{
		name: s.name, ph: 'X', ts: s.start, dur: time.Since(s.start),
		tid: tid, sc: s.sc, parent: s.parent, args: s.args,
	})
}

// Context returns the span's wire ids (zero when s is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Parent returns the parent span id (0 for roots or nil spans).
func (s *Span) Parent() uint64 {
	if s == nil {
		return 0
	}
	return s.parent
}

// FlowOut emits the start of a cross-process arrow from inside s. The peer
// calls FlowIn with the same id. Nil-safe.
func (s *Span) FlowOut(id uint64) {
	if s == nil {
		return
	}
	record(traceEvent{name: s.name, ph: 's', ts: time.Now(), tid: lane(s.sc.Trace), flowID: id})
}

// FlowIn terminates a cross-process arrow inside s. Nil-safe.
func (s *Span) FlowIn(id uint64) {
	if s == nil {
		return
	}
	record(traceEvent{name: s.name, ph: 'f', ts: time.Now(), tid: lane(s.sc.Trace), flowID: id})
}

// Instant records an annotated point event (autoscaler decisions, rollout
// state transitions). kvs are alternating key, value pairs. One atomic load
// when disabled.
func Instant(name string, kvs ...string) {
	if !tracer.enabled.Load() {
		return
	}
	var args [][2]string
	for i := 0; i+1 < len(kvs); i += 2 {
		args = append(args, [2]string{kvs[i], kvs[i+1]})
	}
	record(traceEvent{name: name, ph: 'i', ts: time.Now(), tid: 1, args: args})
}

// HashString folds a string onto uint64 (FNV-1a) — for FlowID parts derived
// from collective keys or group names.
func HashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// FlowID deterministically mixes parts into a flow id (FNV-1a over the
// bytes). Collective ranks derive matching ids on both ends of an edge from
// (group, epoch, tag, from, to) without any extra wire traffic.
func FlowID(parts ...uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= (p >> (8 * i)) & 0xff
			h *= prime
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

type spanCtxKey struct{}

// ContextWith returns ctx carrying the span (nil span returns ctx as-is).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// chromeEvent mirrors the Chrome trace-event JSON schema Perfetto loads.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  uint32            `json:"tid"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// MarshalChromeTrace renders everything recorded so far as a Chrome
// trace-event JSON document. Timestamps are absolute wall-clock
// microseconds, so documents from different processes merge on one axis.
// The process_name event's dropped_events arg counts the events the full
// buffer refused, so a truncated trace says so.
func MarshalChromeTrace() ([]byte, error) {
	tracer.mu.Lock()
	events := append([]traceEvent(nil), tracer.events...)
	procName := tracer.procName
	dropped := tracer.dropped
	tracer.mu.Unlock()

	pid := os.Getpid()
	out := make([]chromeEvent, 0, len(events)+1)
	if procName == "" {
		procName = "tfhpc"
	}
	out = append(out, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", PID: pid,
		Args: map[string]string{"name": procName, "dropped_events": strconv.FormatInt(dropped, 10)},
	})
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name, Cat: "tfhpc", Ph: string(ev.ph),
			Ts:  float64(ev.ts.UnixNano()) / 1e3,
			PID: pid, TID: ev.tid,
		}
		switch ev.ph {
		case 'X':
			ce.Dur = float64(ev.dur.Nanoseconds()) / 1e3
			if ce.Dur <= 0 {
				ce.Dur = 0.001
			}
			ce.Args = map[string]string{
				"trace": hexID(ev.sc.Trace),
				"span":  hexID(ev.sc.Span),
			}
			if ev.parent != 0 {
				ce.Args["parent"] = hexID(ev.parent)
			}
		case 's':
			ce.ID = hexID(ev.flowID)
		case 'f':
			ce.ID = hexID(ev.flowID)
			ce.BP = "e" // bind to the enclosing slice
		case 'i':
			ce.S = "t"
		}
		for _, kv := range ev.args {
			if ce.Args == nil {
				ce.Args = make(map[string]string, len(ev.args))
			}
			ce.Args[kv[0]] = kv[1]
		}
		out = append(out, ce)
	}
	return json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}

// WriteTraceFile dumps the Chrome trace JSON to path.
func WriteTraceFile(path string) error {
	b, err := MarshalChromeTrace()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func hexID(v uint64) string {
	const digits = "0123456789abcdef"
	var b [18]byte
	b[0], b[1] = '0', 'x'
	for i := 0; i < 16; i++ {
		b[2+i] = digits[(v>>(60-4*i))&0xf]
	}
	return string(b[:])
}
