package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// resultFile is what a whole-benchmark run leaves behind and -compare reads:
// every run of every workload, each with its own reproducibility record.
type resultFile struct {
	// Claim is what the change under test says it gained. The change that
	// defines the benchmark claims nothing, and neither does a plain run.
	Claim   *string     `json:"claim"`
	Seed    uint64      `json:"first_seed"`
	Runs    int         `json:"runs_per_workload"`
	Seconds int         `json:"seconds"`
	WallS   float64     `json:"wall_s"`
	Records []runRecord `json:"records"`
}

// runAll runs every workload in a fresh child process per run — runs end-to-
// end runs on consecutive seeds, then one traced run of half the length —
// relaying the children's reports and collecting their records into out.
func runAll(root string, seed uint64, seconds, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	res := resultFile{Seed: seed, Runs: runs, Seconds: seconds}
	child := func(name string, seed uint64, seconds, trace int) error {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Dir, cmd.Stderr = root, os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		runErr := cmd.Run()
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(nil, 64<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, recordPrefix); ok {
				var rec runRecord
				if err := json.Unmarshal([]byte(rest), &rec); err != nil {
					return fmt.Errorf("%s: unreadable record: %w", name, err)
				}
				res.Records, found = append(res.Records, rec), true
				continue
			}
			fmt.Println(line)
		}
		if runErr != nil && !found {
			return fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, runErr)
		}
		return nil
	}
	for _, w := range workloads() {
		for r := 0; r < runs; r++ {
			if err := child(w.name, seed+uint64(r), seconds, 0); err != nil {
				return err
			}
		}
		if err := child(w.name, seed, max(seconds/2, 4), 1); err != nil {
			return err
		}
		fmt.Println()
	}
	res.WallS = time.Since(start).Seconds()
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	failed := 0
	for _, rec := range res.Records {
		if !rec.Correct {
			failed++
		}
	}
	fmt.Printf("%d runs in %.0f s, %d with failed operations; results in %s\n", len(res.Records), res.WallS, failed, out)
	if failed > 0 {
		return fmt.Errorf("%d runs had failed operations", failed)
	}
	return nil
}
