package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/serving/generate"
)

func newHTTPServer(t *testing.T, d int, opts BatchOptions) (*httptest.Server, *Service) {
	t.Helper()
	svc, _ := newLinearService(t, d, opts)
	ts := httptest.NewServer(NewHTTPHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postPredict(t *testing.T, url, model, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/models/%s:predict", url, model),
		"application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func TestHTTPPredict(t *testing.T) {
	const d = 6
	ts, _ := newHTTPServer(t, d, BatchOptions{})

	code, out := postPredict(t, ts.URL, "lin", `{"instances": [[1,1,1,1,1,1],[0,0,0,0,0,0]]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	preds := out["predictions"].([]any)
	if len(preds) != 2 {
		t.Fatalf("want 2 predictions, got %v", preds)
	}
	if preds[1].(float64) != 0 {
		t.Fatalf("zero row must predict 0, got %v", preds[1])
	}

	// A flat instance list is one row.
	code, out = postPredict(t, ts.URL, "lin", `{"instances": [0,0,0,0,0,0]}`)
	if code != http.StatusOK || len(out["predictions"].([]any)) != 1 {
		t.Fatalf("flat instances: status %d %v", code, out)
	}
}

// TestHTTPBatchedMatchesSingle is the end-to-end bit-for-bit check the CI
// smoke replays over a real network socket: the same rows answered in one
// batched request and as concurrent single-row requests must be identical
// in their JSON rendering (same float64 bits → same marshalled text).
func TestHTTPBatchedMatchesSingle(t *testing.T) {
	const d, n = 12, 8
	ts, _ := newHTTPServer(t, d, BatchOptions{MaxBatch: n})

	rows := make([][]float64, n)
	in := randRows(n, d, 99)
	for i := range rows {
		rows[i] = in.F64()[i*d : (i+1)*d]
	}
	body, _ := json.Marshal(map[string]any{"instances": rows})
	code, out := postPredict(t, ts.URL, "lin", string(body))
	if code != http.StatusOK {
		t.Fatalf("batched: status %d %v", code, out)
	}
	batched := out["predictions"].([]any)

	var wg sync.WaitGroup
	singles := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"instances": [][]float64{rows[i]}})
			resp, err := http.Post(fmt.Sprintf("%s/v1/models/lin:predict", ts.URL),
				"application/json", bytes.NewBuffer(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var o map[string][]float64
			if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
				errs[i] = err
				return
			}
			singles[i] = o["predictions"][0]
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("single %d: %v", i, errs[i])
		}
		if batched[i].(float64) != singles[i] {
			t.Fatalf("row %d: batched %v != single %v", i, batched[i], singles[i])
		}
	}
}

func TestHTTPStatusEndpoints(t *testing.T) {
	ts, _ := newHTTPServer(t, 4, BatchOptions{})

	for path, want := range map[string]int{
		"/healthz":        http.StatusOK,
		"/readyz":         http.StatusOK,
		"/statsz":         http.StatusOK,
		"/v1/models":      http.StatusOK,
		"/v1/models/lin":  http.StatusOK,
		"/v1/models/nope": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	var models struct{ Models []ModelStatus }
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if len(models.Models) != 1 || models.Models[0].Name != "lin" || !models.Models[0].Ready {
		t.Fatalf("models listing: %+v", models)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ts, _ := newHTTPServer(t, 4, BatchOptions{})

	cases := []struct {
		model, body string
		want        int
	}{
		{"nope", `{"instances": [[1,2,3,4]]}`, http.StatusNotFound},
		{"lin", `{"instances": [[1,2,3]]}`, http.StatusBadRequest}, // wrong width
		{"lin", `{"instances": []}`, http.StatusBadRequest},
		{"lin", `not json`, http.StatusBadRequest},
		{"lin", `{}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, out := postPredict(t, ts.URL, c.model, c.body)
		if code != c.want {
			t.Errorf("%s %q: status %d, want %d (%v)", c.model, c.body, code, c.want, out)
		}
	}

	// Deadline header in the past → 504.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/lin:predict",
		bytes.NewBufferString(`{"instances": [[1,2,3,4]]}`))
	req.Header.Set("X-Deadline-Ms", "1")
	time.Sleep(5 * time.Millisecond)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("tiny deadline: status %d", resp.StatusCode)
	}

	// Stats reflect traffic.
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct{ Models []StatsSnapshot }
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if len(stats.Models) != 1 {
		t.Fatalf("statsz: %+v", stats)
	}
}

// TestHTTPHugeDeadlineHeader: a very large X-Deadline-Ms is a long deadline
// on both POST endpoints — it saturates like a stream frame's budget rather
// than wrapping negative into an instant 504.
func TestHTTPHugeDeadlineHeader(t *testing.T) {
	const d = 16
	svc := genService(t, d)
	mv, err := NewLinear("lin", 1, linearWeights(d, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()

	instances, _ := json.Marshal(map[string]any{"instances": [][]float64{make([]float64, d)}})
	prompt, _ := json.Marshal(map[string]any{"prompt": genPrompt(rand.New(rand.NewSource(9)), d), "max_tokens": 4})
	for _, ms := range []string{"9223372036854775807", "10000000000000"} {
		for path, body := range map[string][]byte{"lin:predict": instances, "gen:generate": prompt} {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/"+path, bytes.NewReader(body))
			req.Header.Set("X-Deadline-Ms", ms)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Fatalf("%s with X-Deadline-Ms %s: status %d, want 200", path, ms, resp.StatusCode)
			}
			if path == "gen:generate" {
				// The sequence itself must not expire either: every token,
				// then a clean finish.
				if vals, _, final := sseTokens(t, bufio.NewReader(resp.Body)); len(vals) != 4 || final["finish_reason"] != string(generate.FinishLength) {
					t.Fatalf("X-Deadline-Ms %s: %d tokens, finish %v", ms, len(vals), final["finish_reason"])
				}
			}
			resp.Body.Close()
		}
	}
}

func TestHTTPNotReadyWithoutModels(t *testing.T) {
	svc := NewService(NewRegistry(), BatchOptions{})
	defer svc.Close()
	ts := httptest.NewServer(NewHTTPHandler(svc))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty service ready: status %d", resp.StatusCode)
	}
}
