package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "probe", Start: 10e9, End: 40e9},
		{ID: 3, Parent: 1, Name: "probe", Start: 30e9, End: 60e9},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "probe", Start: 90e9, End: 120e9}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self["rep"]; got.Count != 1 || got.SelfS != 100-50-10 {
		t.Errorf("rep self time = %+v, want 40 s (children cover 10–60 and 90–100)", got)
	}
	if got := self["probe"]; got.Count != 3 || got.SelfS != 90 {
		t.Errorf("probe self time = %+v, want 3 spans, 90 s", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tb := tr.buf()
	sp := tb.begin("request", 0, 1)
	tb.count(sp, "bytes", 8)
	tb.end(sp)
	if sp != -1 || tb.id(sp) != 0 || len(tr.all()) != 0 {
		t.Fatalf("tracer is off: begin = %d, spans = %v", sp, tr.all())
	}

	tr.on.Store(true)
	parent := tb.begin("rep", 0, 7)
	other := tr.buf() // a second goroutine's buffer
	child := other.begin("call", tb.id(parent), 7)
	other.count(child, "bytes", 8)
	other.count(child, "bytes", 8)
	other.end(child)
	tb.end(parent)
	all := tr.all()
	if len(all) != 2 || all[0].Name != "rep" || all[1].Parent != all[0].ID || all[1].Req != 7 ||
		all[1].Counts["bytes"] != 16 || all[1].End < all[1].Start {
		t.Fatalf("spans = %+v", all)
	}
}

func TestWriteTraceCapsSpansPerName(t *testing.T) {
	var spans []span
	for i := 0; i < maxSpansPerName+5; i++ {
		spans = append(spans, span{ID: int64(i + 1), Name: "request", Start: int64(i), End: int64(i + 1)})
	}
	spans = append(spans, span{ID: 1 << 20, Name: "setup", Start: 0, End: 9})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "w", spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Dropped int                 `json:"spans_not_written"`
		Self    map[string]selfTime `json:"self_time_by_name"`
		Spans   []span              `json:"spans"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Dropped != 5 || len(got.Spans) != maxSpansPerName+1 || got.Self["request"].Count != maxSpansPerName+5 {
		t.Errorf("dropped %d, wrote %d, aggregate %+v", got.Dropped, len(got.Spans), got.Self["request"])
	}
}
