// serving_smoke is the CI client for the tfserve smoke: it waits for
// readiness, fires concurrent single-row HTTP predicts, replays the same
// rows as one batched request, and asserts (1) batched answers are
// bit-for-bit identical to the single-request answers and (2) the stats
// endpoint proves real coalescing happened (max observed batch ≥ 2).
//
//	go run ./scripts/serving_smoke -addr http://127.0.0.1:8500 -model smoke -features 64
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"tfhpc/internal/tensor"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8500", "tfserve HTTP base URL")
	model := flag.String("model", "smoke", "model name to exercise")
	features := flag.Int("features", 64, "model feature dimension")
	clients := flag.Int("clients", 24, "concurrent single-row clients")
	rounds := flag.Int("rounds", 8, "rows per client")
	wait := flag.Duration("wait", 15*time.Second, "readiness wait budget")
	flag.Parse()

	if err := waitReady(*addr, *wait); err != nil {
		fatal(err)
	}
	fmt.Printf("serving_smoke: %s ready\n", *addr)

	// Deterministic row set, one per (client, round).
	n := *clients * *rounds
	rows := make([][]float64, n)
	r := tensor.NewRNG(1234)
	for i := range rows {
		row := make([]float64, *features)
		for j := range row {
			row[j] = r.Float64()*2 - 1
		}
		rows[i] = row
	}

	// Concurrent single-row predicts: this is the traffic that must
	// coalesce server-side.
	singles := make([]float64, n)
	errs := make([]error, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < *rounds; k++ {
				i := c**rounds + k
				preds, err := predict(*addr, *model, [][]float64{rows[i]})
				if err != nil {
					errs[c] = fmt.Errorf("single predict %d: %w", i, err)
					return
				}
				if len(preds) != 1 {
					errs[c] = fmt.Errorf("single predict %d: %d predictions", i, len(preds))
					return
				}
				singles[i] = preds[0]
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}

	// One batched request over the identical rows: answers must be
	// bit-for-bit equal to the single-request answers.
	batched, err := predict(*addr, *model, rows)
	if err != nil {
		fatal(fmt.Errorf("batched predict: %w", err))
	}
	if len(batched) != n {
		fatal(fmt.Errorf("batched predict returned %d predictions, want %d", len(batched), n))
	}
	for i := range rows {
		if math.Float64bits(batched[i]) != math.Float64bits(singles[i]) {
			fatal(fmt.Errorf("row %d: batched %x != single %x (not bit-identical)",
				i, math.Float64bits(batched[i]), math.Float64bits(singles[i])))
		}
	}
	fmt.Printf("serving_smoke: %d batched answers bit-identical to single-request answers\n", n)

	// The stats endpoint must prove the micro-batcher actually coalesced:
	// the one n-row request above is admitted as a unit, so at least its
	// rows shared session runs.
	st, err := stats(*addr, *model)
	if err != nil {
		fatal(err)
	}
	if st.MaxBatch < 2 {
		fatal(fmt.Errorf("no batching occurred: max_batch=%d (rows=%d batches=%d)",
			st.MaxBatch, st.Rows, st.Batches))
	}
	fmt.Printf("serving_smoke: OK — rows=%d batches=%d mean_batch=%.2f max_batch=%d rejected=%d expired=%d\n",
		st.Rows, st.Batches, st.MeanBatch, st.MaxBatch, st.Rejected, st.Expired)
}

func waitReady(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v (last err %v)", addr, budget, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func predict(addr, model string, rows [][]float64) ([]float64, error) {
	body, err := json.Marshal(map[string]any{"instances": rows})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/models/%s:predict", addr, model),
		"application/json", bytes.NewBuffer(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e["error"])
	}
	var out struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Predictions, nil
}

// modelStats is the /statsz per-model slice of the serving snapshot.
type modelStats struct {
	Model     string  `json:"model"`
	Rows      int64   `json:"rows"`
	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int64   `json:"max_batch"`
	Rejected  int64   `json:"rejected"`
	Expired   int64   `json:"expired"`
}

func stats(addr, model string) (*modelStats, error) {
	resp, err := http.Get(addr + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Models []modelStats `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	for i := range out.Models {
		if out.Models[i].Model == model {
			return &out.Models[i], nil
		}
	}
	return nil, fmt.Errorf("model %q missing from /statsz", model)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "serving_smoke: FAIL: %v\n", err)
	os.Exit(1)
}
