package serving

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"tfhpc/internal/telemetry"
)

// TestBatcherFlushTraceChain serves one multi-row request with tracing on
// and follows its spans down: the batch's batcher_flush span, carrying the
// batch's rows, parents the session's session_run span, which parents one
// span per node the Run evaluated. The tracer is process-global and stays
// on once enabled, so the test runs in a child test process with
// TFHPC_TRACE_OUT set, away from the allocation gates.
func TestBatcherFlushTraceChain(t *testing.T) {
	if !telemetry.Enabled() {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "TFHPC_TRACE_OUT="+filepath.Join(t.TempDir(), "trace.json"))
		if out, err := cmd.CombinedOutput(); err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
			t.Fatalf("traced child process: %v\n%s", err, out)
		}
		return
	}
	const d, n = 8, 5
	svc, _ := newLinearService(t, d, BatchOptions{MaxBatch: n})
	if _, err := svc.Predict("lin", randRows(n, d, 1), time.Time{}); err != nil {
		t.Fatal(err)
	}

	b, err := telemetry.MarshalChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[string]string{} // span id → name
	parent := map[string]string{}
	var flushes int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byID[ev.Args["span"]] = ev.Name
		parent[ev.Args["span"]] = ev.Args["parent"]
		if ev.Name == "batcher_flush" {
			flushes++
			if ev.Args["rows"] != strconv.Itoa(n) {
				t.Fatalf("batcher_flush rows = %q, want %d", ev.Args["rows"], n)
			}
		}
	}
	if flushes != 1 {
		t.Fatalf("%d batcher_flush spans, want 1", flushes)
	}
	var nodes int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args["op"] == "" {
			continue
		}
		run := parent[ev.Args["span"]]
		if byID[run] != "session_run" || byID[parent[run]] != "batcher_flush" {
			t.Fatalf("node %q: parent %q (%s), grandparent %q, want session_run under batcher_flush",
				ev.Name, byID[run], run, byID[parent[run]])
		}
		nodes++
	}
	if nodes == 0 {
		t.Fatal("no node spans under the batch's session_run")
	}
}
