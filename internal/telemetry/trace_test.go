package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// resetTracer empties the recorded event buffer between tests. Tracing
// stays enabled once any test enables it — the tracer is process-global —
// so tests assert on deltas over a drained buffer.
func resetTracer() {
	tracer.mu.Lock()
	tracer.events = nil
	tracer.dropped = 0
	tracer.mu.Unlock()
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.End()
	s.Arg("k", "v")
	s.FlowOut(1)
	s.FlowIn(1)
	if s.Child("x") != nil {
		t.Fatal("nil span spawned a child")
	}
	if s.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if ContextWith(context.Background(), nil) != context.Background() {
		t.Fatal("nil span changed the context")
	}
}

func TestDisabledFastPath(t *testing.T) {
	if Enabled() {
		t.Skip("tracer already enabled (TFHPC_TRACE_OUT or an earlier test)")
	}
	if s := StartRoot("x"); s != nil {
		t.Fatal("disabled StartRoot returned a span")
	}
	if n := testing.AllocsPerRun(1000, func() {
		s := StartRoot("hot")
		s.Child("child").OnLane(NewLane("lane")).End()
		s.End()
		Instant("i")
	}); n != 0 {
		t.Fatalf("disabled tracing allocated %v per run, want 0", n)
	}
}

func TestSpanHierarchyAndChrome(t *testing.T) {
	Enable()
	resetTracer()

	root := StartRoot("request")
	if !root.Context().Valid() {
		t.Fatal("root has no context")
	}
	child := root.Child("batch").Arg("size", "4")
	grand := child.Child("session_run")
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	root.FlowOut(42)
	root.End()
	Instant("decision", "dir", "up")

	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child switched trace id")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused parent span id")
	}

	b, err := MarshalChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	var phases = map[string]int{}
	var batch map[string]any
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
		if ev["name"] == "batch" {
			batch = ev
		}
	}
	if phases["X"] != 3 || phases["s"] != 1 || phases["i"] != 1 || phases["M"] != 1 {
		t.Fatalf("phase counts %v, want 3 X / 1 s / 1 i / 1 M", phases)
	}
	args := batch["args"].(map[string]any)
	if args["parent"] != hexID(root.Context().Span) {
		t.Fatalf("batch parent arg %v, want %s", args["parent"], hexID(root.Context().Span))
	}
	if args["trace"] != hexID(root.Context().Trace) {
		t.Fatalf("batch trace arg %v", args["trace"])
	}
	if args["size"] != "4" {
		t.Fatalf("batch lost its Arg: %v", args)
	}
}

// TestNewLane: a span OnLane draws on that lane, which is named in the
// file and lies above every lane a trace id folds onto, and a second
// NewLane is a different lane.
func TestNewLane(t *testing.T) {
	Enable()
	resetTracer()
	l := NewLane("/device:GPU:0")
	if l < 1<<20 || NewLane("/device:GPU:0") == l {
		t.Fatalf("NewLane gave %d, then the same again or one a trace id folds onto", l)
	}
	root := StartRoot("run")
	root.Child("node").OnLane(l).End()
	root.End()

	tracer.mu.Lock()
	events := append([]traceEvent(nil), tracer.events...)
	tracer.mu.Unlock()
	tids := map[string]uint32{}
	for _, ev := range events {
		if ev.ph == 'M' && ev.tid == l && ev.args[0] != [2]string{"name", "/device:GPU:0"} {
			t.Fatalf("lane %d named %v", l, ev.args)
		}
		tids[ev.name] = ev.tid
	}
	if tids["node"] != l || tids["run"] != lane(root.Context().Trace) {
		t.Fatalf("lanes %v: node wants %d, run its trace's lane", tids, l)
	}
}

func TestRemoteParentLinksAcrossProcesses(t *testing.T) {
	Enable()
	resetTracer()

	// Client side: span + wire ids out.
	cs := StartRoot("rpc_call")
	sc := cs.Context()
	cs.FlowOut(sc.Span)
	cs.End()

	// "Server" side: rebuild the parent from wire ids (as rpc's serveConn
	// does) and terminate the flow.
	ss := StartChild(SpanContext{Trace: sc.Trace, Span: sc.Span}, "rpc_serve")
	ss.FlowIn(sc.Span)
	ss.End()

	if ss.Context().Trace != sc.Trace {
		t.Fatal("server span not in the caller's trace")
	}
	if ss.parent != sc.Span {
		t.Fatal("server span not parented to the caller's span")
	}
}

func TestContextPropagation(t *testing.T) {
	Enable()
	s := StartRoot("ctxspan")
	defer s.End()
	ctx := ContextWith(context.Background(), s)
	if SpanFromContext(ctx) != s {
		t.Fatal("span lost in context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
}

func TestFlowIDDeterministicNonzero(t *testing.T) {
	a := FlowID(1, 2, 3)
	if a != FlowID(1, 2, 3) {
		t.Fatal("FlowID not deterministic")
	}
	if a == FlowID(3, 2, 1) {
		t.Fatal("FlowID ignores order")
	}
	if FlowID(0) == 0 || FlowID() == 0 {
		t.Fatal("FlowID minted the reserved zero id")
	}
}

// TestTraceDropsAreCounted overflows a lowered buffer bound: the events past
// it are not kept, and both /metricz and the dumped file count them.
func TestTraceDropsAreCounted(t *testing.T) {
	Enable()
	resetTracer()
	defer setTraceCap(8)()
	before := mTraceDropped.Value()
	for i := 0; i < 20; i++ {
		Instant("overflow")
	}
	tracer.mu.Lock()
	kept := len(tracer.events)
	tracer.mu.Unlock()
	if kept != 8 {
		t.Fatalf("buffer holds %d events, want the 8 its bound allows", kept)
	}
	if got := mTraceDropped.Value() - before; got != 12 {
		t.Fatalf("tfhpc_trace_dropped_total rose by %d, want 12", got)
	}
	var exp bytes.Buffer
	if err := WriteTo(&exp); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("tfhpc_trace_dropped_total %d\n", before+12); !strings.Contains(exp.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Name != "process_name" {
		t.Fatal("trace file does not open with its process_name event")
	}
	if got := doc.TraceEvents[0].Args["dropped_events"]; got != "12" {
		t.Fatalf("trace file records %q dropped events, want 12", got)
	}
}
