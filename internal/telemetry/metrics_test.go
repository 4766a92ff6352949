package telemetry

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRegistryHandlesAndExposition checks each handle and its exposition
// line. The registry is process-global and keeps its values across tests
// and -count repeats, so every value is read before this test moves it and
// checked for the exact change the test makes.
func TestRegistryHandlesAndExposition(t *testing.T) {
	c := NewCounter("tfhpc_unittest_events_total", "Unit-test counter.")
	c2 := NewCounter("tfhpc_unittest_events_total", "Unit-test counter.")
	if c != c2 {
		t.Fatalf("duplicate registration returned a different handle")
	}
	c0 := c.Value()
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != c0+3 {
		t.Fatalf("counter = %d, want %d", got, c0+3)
	}

	g := NewGauge("tfhpc_unittest_depth", "Unit-test gauge.")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := NewHistogram("tfhpc_unittest_latency_seconds", "Unit-test histogram.", []float64{0.01, 0.1, 1})
	n0, sum := h.Count(), h.Sum()
	cum := make([]int64, len(h.counts)) // cumulative bucket counts, as exposed
	for i := range cum {
		cum[i] = h.counts[i].Load()
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
		sum += v
	}
	for i := range cum {
		cum[i] += int64(i + 1) // one observation lands in each bucket
	}
	if h.Count() != n0+4 {
		t.Fatalf("histogram count = %d, want %d", h.Count(), n0+4)
	}
	if h.Sum() != sum {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), sum)
	}

	lc := NewCounter("tfhpc_unittest_labeled_total", "Labeled unit-test counter.", "algo", "ring")
	ld := NewCounter("tfhpc_unittest_labeled_total", "Labeled unit-test counter.", "algo", "doubling")
	if lc == ld {
		t.Fatalf("distinct label sets shared a handle")
	}
	lc0, ld0 := lc.Value(), ld.Value()
	lc.Inc()

	var buf bytes.Buffer
	if err := WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP tfhpc_unittest_events_total Unit-test counter.\n",
		"# TYPE tfhpc_unittest_events_total counter\n",
		fmt.Sprintf("tfhpc_unittest_events_total %d\n", c0+3),
		"# TYPE tfhpc_unittest_depth gauge\n",
		"tfhpc_unittest_depth 5\n",
		"# TYPE tfhpc_unittest_latency_seconds histogram\n",
		fmt.Sprintf("tfhpc_unittest_latency_seconds_bucket{le=\"0.01\"} %d\n", cum[0]),
		fmt.Sprintf("tfhpc_unittest_latency_seconds_bucket{le=\"0.1\"} %d\n", cum[1]),
		fmt.Sprintf("tfhpc_unittest_latency_seconds_bucket{le=\"1\"} %d\n", cum[2]),
		fmt.Sprintf("tfhpc_unittest_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum[3]),
		"tfhpc_unittest_latency_seconds_sum " + string(appendFloat(nil, sum)) + "\n",
		fmt.Sprintf("tfhpc_unittest_latency_seconds_count %d\n", n0+4),
		fmt.Sprintf("tfhpc_unittest_labeled_total{algo=\"ring\"} %d\n", lc0+1),
		fmt.Sprintf("tfhpc_unittest_labeled_total{algo=\"doubling\"} %d\n", ld0),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// One HELP header per family, whatever the label-set count.
	if n := strings.Count(text, "# HELP tfhpc_unittest_labeled_total"); n != 1 {
		t.Errorf("labeled family has %d HELP lines, want 1", n)
	}
}

func TestRegistrationValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: registration did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad prefix", func() { NewCounter("batcher_rows_total", "help") })
	mustPanic("digits", func() { NewCounter("tfhpc_p99_seconds", "help") })
	mustPanic("uppercase", func() { NewCounter("tfhpc_Rows_total", "help") })
	mustPanic("no help", func() { NewCounter("tfhpc_unittest_nohelp_total", "") })
	mustPanic("odd labels", func() { NewCounter("tfhpc_unittest_odd_total", "help", "k") })
	mustPanic("kind clash", func() {
		NewGauge("tfhpc_unittest_kindclash_total", "help")
		NewCounter("tfhpc_unittest_kindclash_total", "help")
	})
	mustPanic("unsorted bounds", func() {
		NewHistogram("tfhpc_unittest_bounds_seconds", "help", []float64{1, 0.5})
	})
}

func TestMetricUpdatesAllocationFree(t *testing.T) {
	c := NewCounter("tfhpc_unittest_hot_total", "Alloc-gate counter.")
	g := NewGauge("tfhpc_unittest_hot_depth", "Alloc-gate gauge.")
	h := NewHistogram("tfhpc_unittest_hot_seconds", "Alloc-gate histogram.", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(4)
		g.Add(-1)
		h.Observe(0.0123)
	}); n != 0 {
		t.Fatalf("metric updates allocated %v per run, want 0", n)
	}
}

func TestHandler(t *testing.T) {
	c := NewCounter("tfhpc_unittest_handler_total", "Handler test counter.")
	want := fmt.Sprintf("tfhpc_unittest_handler_total %d\n", c.Value()+1)
	c.Inc()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricz", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metricz = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("handler output missing counter:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metricz", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metricz = %d, want 405", rec.Code)
	}
}

func TestMetricsWalk(t *testing.T) {
	NewCounter("tfhpc_unittest_walk_total", "Walk test counter.")
	found := false
	for _, m := range Metrics() {
		if m.Name == "tfhpc_unittest_walk_total" {
			found = true
			if m.Help == "" || m.Kind != KindCounter {
				t.Fatalf("walk row corrupted: %+v", m)
			}
		}
	}
	if !found {
		t.Fatal("registered metric missing from Metrics()")
	}
}
