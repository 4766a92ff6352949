package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkJSON is the part of BENCHMARK.json -compare needs: which metrics
// are gated, in which direction, and by how much each may worsen.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges side b against side a for one metric: unresolved when
// either side's own run-to-run spread (quartile distance over median) is
// wider than the bound, so a difference of that size cannot be told from
// noise; worse when b's median is worse than a's by more than the bound.
func verdict(a, b summary, d metricDef) string {
	if a.N > 1 && a.spread() > d.Bound || b.N > 1 && b.spread() > d.Bound {
		return verdictUnresolved
	}
	change := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// sideStats collects one result file's end-to-end runs of one workload.
type sideStats struct {
	values            map[string][]float64
	attempted, failed int
}

func collect(res *resultFile, workload string) sideStats {
	s := sideStats{values: map[string][]float64{}}
	for _, rec := range res.Records {
		if rec.Workload != workload || rec.Trace || rec.Result == nil {
			continue
		}
		for name, v := range rec.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
		s.attempted += rec.Result.Attempted
		s.failed += rec.Result.Failed
	}
	return s
}

func (s sideStats) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// compareFiles prints one row per workload × end-to-end metric with both
// sides' medians and quartiles, the bound and the verdict, then the failed-
// operation share per workload. It reports whether any row is worse.
func compareFiles(w io.Writer, root, pathA, pathB string) (anyWorse bool, err error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%d runs per workload, seeds from %d)\nb = %s (%d runs per workload, seeds from %d)\n",
		pathA, a.Runs, a.Seed, pathB, b.Runs, b.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tb vs a\tspread a / b\tbound\tverdict")
	counts := map[string]int{}
	for _, wl := range workloads() {
		sa, sb := collect(a, wl.name), collect(b, wl.name)
		for _, d := range decl.EndToEnd {
			qa, qb := summarize(sa.values[d.Name]), summarize(sb.values[d.Name])
			if qa.N == 0 || qb.N == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\tmissing on one side\n", wl.name, d.Name)
				continue
			}
			v := verdict(qa, qb, d)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s (%s, %s is better)\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.1f%% / %.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, d.Unit, d.Better, qa.Median, qa.Q1, qa.Q3, qb.Median, qb.Q1, qb.Q3,
				100*(qb.Median-qa.Median)/qa.Median, 100*qa.spread(), 100*qb.spread(), 100*d.Bound, v)
		}
		v := verdictOK
		if sb.failedShare() > sa.failedShare() {
			v = verdictWorse
		}
		counts[v]++
		fmt.Fprintf(tw, "%s\tfailed operations\t%d of %d\t%d of %d\t\t\t\t%s\n",
			wl.name, sa.failed, sa.attempted, sb.failed, sb.attempted, v)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved (spread wider than the bound: neither changed nor unchanged)\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0, nil
}
