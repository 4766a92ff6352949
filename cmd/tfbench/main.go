// tfbench regenerates the paper's evaluation tables and figures on the
// virtual platform. Host measurements are benchmark/'s job:
// bash benchmark/run.sh --workload <name> --trace 1.
//
// Usage:
//
//	tfbench                    # every table and figure
//	tfbench -exp fig8          # one experiment
//	tfbench -exp table1,fig7   # several, in order
//
// Experiments: table1 fig7 fig8 fig9 fig10 fig11 (all = figures = every one).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tfhpc/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: all|figures|"+strings.Join(bench.ExperimentNames, "|"))
	flag.Parse()

	exps := strings.Split(*exp, ",")
	for i := range exps {
		exps[i] = strings.TrimSpace(exps[i])
	}
	text, err := bench.Run(exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfbench: %v\n", err)
		fmt.Fprintln(os.Stderr, "tfbench: host measurements: bash benchmark/run.sh --workload <name> --trace 1")
		os.Exit(2)
	}
	fmt.Print(text)
}
