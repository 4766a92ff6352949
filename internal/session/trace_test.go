package session

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"tfhpc/internal/graph"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// inTracedChild reports whether tracing is on in this process. When it is
// not, it reruns t alone in a child test process with TFHPC_TRACE_OUT set
// and fails t if the child does: the tracer is process-global and stays on
// once enabled, so a traced test must not share a process with the
// allocation gates.
func inTracedChild(t *testing.T) bool {
	t.Helper()
	if telemetry.Enabled() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "TFHPC_TRACE_OUT="+filepath.Join(t.TempDir(), "trace.json"))
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
		t.Fatalf("traced child process: %v\n%s", err, out)
	}
	return false
}

// traceSpan is one recorded span as the Chrome file holds it.
type traceSpan struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TID  uint32            `json:"tid"`
	Args map[string]string `json:"args"`
}

// recordedTrace is what this process has recorded: its spans by parent
// span id, and each named lane's name.
type recordedTrace struct {
	children map[string][]traceSpan
	lanes    map[uint32]string
}

func readTrace(t *testing.T) recordedTrace {
	t.Helper()
	b, err := telemetry.MarshalChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	tr := recordedTrace{children: map[string][]traceSpan{}, lanes: map[uint32]string{}}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X":
			tr.children[ev.Args["parent"]] = append(tr.children[ev.Args["parent"]], ev)
		case ev.Ph == "M" && ev.Name == "thread_name":
			tr.lanes[ev.TID] = ev.Args["name"]
		}
	}
	return tr
}

// runsUnder returns the session_run spans whose parent is span.
func (tr recordedTrace) runsUnder(span string) []traceSpan {
	var runs []traceSpan
	for _, s := range tr.children[span] {
		if s.Name == "session_run" {
			runs = append(runs, s)
		}
	}
	return runs
}

// checkRun checks the spans of one traced Run against tr: each node span
// under run names its op and device and draws on a lane named after that
// device, one lane per device in the Run; wantOps counts the ops the Run
// must record. laneRun maps every lane a Run drew on to that Run, so no
// two Runs share a lane. It returns the lane of each device.
func (tr recordedTrace) checkRun(t *testing.T, run traceSpan, wantOps map[string]int, laneRun map[uint32]string) map[string]uint32 {
	t.Helper()
	byDevice := map[string]uint32{}
	for _, s := range tr.children[run.Args["span"]] {
		op, dev := s.Args["op"], s.Args["device"]
		if op == "" || dev == "" {
			t.Fatalf("span %q has op %q, device %q", s.Name, op, dev)
		}
		wantOps[op]--
		if l, ok := byDevice[dev]; ok && l != s.TID {
			t.Fatalf("device %s draws on lanes %d and %d in one Run", dev, l, s.TID)
		}
		byDevice[dev] = s.TID
		if name := tr.lanes[s.TID]; name != dev {
			t.Fatalf("span %q on %s draws on lane %d named %q", s.Name, dev, s.TID, name)
		}
		if other, ok := laneRun[s.TID]; ok && other != run.Args["span"] {
			t.Fatalf("Runs %s and %s share lane %d", other, run.Args["span"], s.TID)
		}
		laneRun[s.TID] = run.Args["span"]
	}
	for op, n := range wantOps {
		if n != 0 {
			t.Fatalf("Run %s: %d spans of op %s missing (negative: extra)", run.Args["span"], n, op)
		}
	}
	return byDevice
}

// TestTimelineCollection runs Listing 1 twice at once under a caller's
// span, with tracing on, and reads the Runs back from the trace: each Run
// is a session_run child of its caller; each node it evaluates is a child
// of the Run, on its device's lane, with distinct CPU and GPU lanes; and
// no two Runs share a lane.
func TestTimelineCollection(t *testing.T) {
	if !inTracedChild(t) {
		return
	}
	g := graph.New()
	c := buildListing1(g)
	sess, err := New(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	caller := telemetry.StartRoot("caller")
	ctx := telemetry.ContextWith(context.Background(), caller)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ { // at once: concurrent Runs still draw on lanes of their own
		go func() {
			_, err := sess.RunContext(ctx, nil, []string{c.Name()}, nil)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	caller.End()

	tr := readTrace(t)
	var callerID string
	for _, s := range tr.children[""] {
		if s.Name == "caller" {
			callerID = s.Args["span"]
		}
	}
	runs := tr.runsUnder(callerID)
	if callerID == "" || len(runs) != 2 {
		t.Fatalf("%d session_run spans under the caller's, want 2", len(runs))
	}
	laneRun := map[uint32]string{}
	for _, run := range runs {
		lanes := tr.checkRun(t, run, map[string]int{"RandomUniform": 2, "MatMul": 1}, laneRun)
		cpu, gpu := lanes["/device:CPU:0"], lanes["/device:GPU:0"]
		if cpu == 0 || gpu == 0 || cpu == gpu {
			t.Fatalf("CPU and GPU lanes %v, want two distinct ones", lanes)
		}
	}
}

// TestPartitionTraceSpans runs a graph partitioned over two tasks with
// tracing on: the Run is a root session_run span holding the local node's
// span and one Partition span per task, each on the task's lane.
func TestPartitionTraceSpans(t *testing.T) {
	if !inTracedChild(t) {
		return
	}
	tt := startTasks(t, taskA, taskB)
	sess, err := New(chainGraph(), nil, Options{LocalJob: "client", Remote: tt})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := runWithin(t, sess, map[string]*tensor.Tensor{"x": tensor.ScalarF64(1)}, []string{"e"}, nil); err != nil {
		t.Fatal(err)
	}

	tr := readTrace(t)
	runs := tr.runsUnder("")
	if len(runs) != 1 {
		t.Fatalf("%d root session_run spans, want the partitioned Run's", len(runs))
	}
	lanes := tr.checkRun(t, runs[0], map[string]int{"Partition": 2, "Neg": 1}, map[uint32]string{})
	if lanes["/job:worker/task:0"] == 0 || lanes["/job:worker/task:1"] == 0 {
		t.Fatalf("partition lanes %v, want one per task", lanes)
	}
}
