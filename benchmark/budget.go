package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// budgetRow prices one layer's part in one operation of a workload: how
// often the layer is entered per operation, times what one entry costs when
// the benchmark calls the layer directly with the workload's shapes (the
// probe's measured self time). The program has no spans of its own yet, so
// this is a model checked against the measured operation time — the part it
// does not explain is printed as its own row, never hidden.
type budgetRow struct {
	Layer   string  `json:"layer"`
	What    string  `json:"what"`
	Count   float64 `json:"count,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	CostUs  float64 `json:"unit_cost_us,omitempty"`
	Seconds float64 `json:"seconds"`
}

// callRow prices count calls at us microseconds each.
func callRow(layer, what string, count, us float64) budgetRow {
	return budgetRow{Layer: layer, What: what, Count: count, Unit: "calls", CostUs: us, Seconds: count * us / 1e6}
}

// byteRow prices bytes moved at a probe's MB/s. The bytes are computed from
// array sizes, not counted.
func byteRow(layer, what string, bytes, mbps float64) budgetRow {
	return budgetRow{Layer: layer, What: what, Count: bytes / (1 << 20), Unit: "MiB",
		CostUs: (1 << 20) / mbps, Seconds: bytes / (mbps * 1e6)}
}

// flopRow prices floating-point operations at a probe's Gflop/s.
func flopRow(layer, what string, flops, gflops float64) budgetRow {
	return budgetRow{Layer: layer, What: what, Count: flops / 1e9, Unit: "Gflop",
		CostUs: 1e6 / gflops, Seconds: flops / (gflops * 1e9)}
}

// unattributedShare is the part of the operation time the rows leave
// unexplained (negative when the model over-counts, e.g. because layers
// overlap in time).
func unattributedShare(rows []budgetRow, opSeconds float64) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.Seconds
	}
	return 1 - sum/opSeconds
}

func printBudget(w io.Writer, name string, rows []budgetRow, opSeconds float64, opWhat string) {
	fmt.Fprintf(w, "layer budget of %s: one %s = %.4g ms (traced median)\n", name, opWhat, opSeconds*1e3)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tcount per op\tunit cost\ttime\tshare\twhat")
	for _, r := range rows {
		count, cost := "-", "-"
		if r.Unit != "" {
			count = fmt.Sprintf("%.4g %s", r.Count, r.Unit)
			cost = fmt.Sprintf("%.4g us", r.CostUs)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%.4g ms\t%.1f%%\t%s\n", r.Layer, count, cost, r.Seconds*1e3, 100*r.Seconds/opSeconds, r.What)
	}
	un := unattributedShare(rows, opSeconds)
	note := "not explained by the rows above"
	if un < 0 {
		note += " (negative: the rows overlap in time)"
	}
	fmt.Fprintf(tw, "  unattributed\t-\t-\t%.4g ms\t%.1f%%\t%s\n", un*opSeconds*1e3, 100*un, note)
	tw.Flush()
}
