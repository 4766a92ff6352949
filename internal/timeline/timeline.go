// Package timeline collects per-op execution events and renders them in the
// Chrome trace-event JSON format — the analogue of the TensorFlow Timeline
// tool the paper uses (Fig. 3) to inspect parallel execution across devices.
// Load the output in chrome://tracing or Perfetto.
package timeline

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Event is one completed op execution on one device.
type Event struct {
	Name   string  // node name
	Op     string  // op type
	Device string  // canonical device string
	Start  float64 // seconds since trace start
	End    float64 // seconds since trace start
}

// Trace is a threadsafe event collector.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// New returns an empty trace anchored at the current wall time.
func New() *Trace {
	return &Trace{start: time.Now()}
}

// Now returns the trace-relative timestamp in seconds.
func (t *Trace) Now() float64 { return time.Since(t.start).Seconds() }

// Add records one event.
func (t *Trace) Add(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// AddSpan records an op that ran from start to end (trace-relative seconds).
func (t *Trace) AddSpan(name, op, device string, start, end float64) {
	t.Add(Event{Name: name, Op: op, Device: device, Start: start, End: end})
}

// Events returns a copy of all recorded events, ordered by start time.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeEvent is the trace-event JSON schema (subset).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// MarshalChrome renders the trace as Chrome trace-event JSON, one "thread"
// lane per device.
func (t *Trace) MarshalChrome() ([]byte, error) {
	events := t.Events()
	deviceLane := map[string]int{}
	var lanes []string
	for _, ev := range events {
		if _, ok := deviceLane[ev.Device]; !ok {
			deviceLane[ev.Device] = len(lanes)
			lanes = append(lanes, ev.Device)
		}
	}
	var out []chromeEvent
	for i, dev := range lanes {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i,
			Args: map[string]string{"name": dev},
		})
	}
	for _, ev := range events {
		out = append(out, chromeEvent{
			Name: ev.Name,
			Cat:  "op",
			Ph:   "X",
			Ts:   ev.Start * 1e6,
			Dur:  (ev.End - ev.Start) * 1e6,
			PID:  1,
			TID:  deviceLane[ev.Device],
			Args: map[string]string{"op": ev.Op},
		})
	}
	return json.MarshalIndent(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out}, "", "  ")
}

// WriteFile writes the Chrome JSON form to path.
func (t *Trace) WriteFile(path string) error {
	b, err := t.MarshalChrome()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
