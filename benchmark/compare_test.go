package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{N: 10, Q1: m * 0.99, Median: m, Q3: m * 1.01} }
	noisy := func(m float64) summary { return summary{N: 10, Q1: m * 0.9, Median: m, Q3: m * 1.1} }
	cases := []struct {
		a, b summary
		d    metricDef
		want string
	}{
		{tight(100), tight(105), lower, verdictOK},
		{tight(100), tight(111), lower, verdictWorse},
		{tight(100), tight(50), lower, verdictOK}, // better is never worse
		{tight(100), tight(89), higher, verdictWorse},
		{tight(100), tight(120), higher, verdictOK},
		{noisy(100), tight(150), lower, verdictUnresolved}, // a's own spread (20%) exceeds the bound
		{tight(100), noisy(100), lower, verdictUnresolved},
		{summary{N: 1, Median: 100}, summary{N: 1, Median: 120}, lower, verdictWorse}, // single runs have no spread to hide behind
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("case %d: verdict = %q, want %q", i, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMs []float64, failed int) string {
		res := resultFile{Runs: len(opMs)}
		for _, v := range opMs {
			res.Records = append(res.Records, runRecord{Workload: "matmul", Correct: failed == 0,
				Result: &measurement{Attempted: 10, Failed: failed},
				Metrics: map[string]metricValue{
					"op_ms": {v, "ms"}, "tail_ms": {v, "ms"}, "rate_per_s": {1 / v, "1/s"}, "setup_s": {1, "s"}}})
		}
		// A traced record must be ignored by the comparison.
		res.Records = append(res.Records, runRecord{Workload: "matmul", Trace: true, Metrics: map[string]metricValue{"op_ms": {1e9, "ms"}}})
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	root := findRootForTest(t)
	a := write("a.json", []float64{100, 101, 99, 100, 100}, 0)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, root, a, write("same.json", []float64{101, 100, 100, 99, 102}, 0)); err != nil || worse {
		t.Fatalf("A/A comparison: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, root, a, write("slow.json", []float64{130, 131, 129, 130, 130}, 1))
	if err != nil || !worse {
		t.Fatalf("30%% slower with failures: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for _, want := range []string{"matmul", "op_ms", "+30.0%", verdictWorse, "0 of 50", "5 of 50", "missing on one side"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
}

func findRootForTest(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// BENCHMARK.json is written by hand; the program's own tables must say the
// same, name for name and unit for unit.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(findRootForTest(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	ws := workloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		d := decl.Workloads[i]
		if d.Name != w.name || d.Why != w.why || !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: declared %q / %q, program has %q / %q", i, d.Name, d.Why, w.name, w.why)
		}
	}
	check := func(kind string, declared, have []metricDef, bounded bool) {
		if len(declared) != len(have) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(declared), len(have))
		}
		for i, h := range have {
			if declared[i] != h {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, declared[i], h)
			}
			if !name.MatchString(h.Name) || !unit.MatchString(h.Unit) || h.Better != "lower" && h.Better != "higher" {
				t.Errorf("%s %+v: bad name, unit or direction", kind, h)
			}
			if bounded != (h.Bound > 0) || h.Bound > 0.25 {
				t.Errorf("%s %+v: bound", kind, h)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}
