package smoke

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// post POSTs body as JSON. A non-2xx answer is an error carrying its body.
func post(url string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func predict(base, model string, rows [][]float64) ([]float64, error) {
	resp, err := post(base+"/v1/models/"+model+":predict", map[string]any{"instances": rows})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Predictions []float64 `json:"predictions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Predictions, err
}

// metric reads one series of base's /metricz. series is the exposition's
// exact name token, labels included.
func (h *harness) metric(base, series string) float64 {
	h.Helper()
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		h.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == series {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				h.Fatalf("%s: %v", series, err)
			}
			return v
		}
	}
	h.Fatalf("%s/metricz has no series %s", base, series)
	return 0
}

// rises runs load and fails the leg unless every counter in series rose.
func (h *harness) rises(base string, series []string, load func()) {
	h.Helper()
	before := make([]float64, len(series))
	for i, s := range series {
		before[i] = h.metric(base, s)
	}
	load()
	for i, s := range series {
		if after := h.metric(base, s); after <= before[i] {
			h.Fatalf("counter %s did not rise under load: %v -> %v", s, before[i], after)
		}
	}
}

// batchedEqualsSingle sends 24 clients' single-row predicts at once, for
// the batcher to coalesce, then the same rows as one request. Every batched
// answer must equal its single-request answer to the bit, and /statsz must
// show a batch of two or more rows.
func batchedEqualsSingle(h *harness, base string) {
	h.Helper()
	const clients, rounds = 24, 8
	rows := randRows(1234, clients*rounds, 64)
	single := make([]float64, len(rows))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * rounds; i < (c+1)*rounds; i++ {
				p, err := predict(base, "smoke", rows[i:i+1])
				if err == nil && len(p) != 1 {
					err = fmt.Errorf("%d predictions for one row", len(p))
				}
				if err != nil {
					errs[c] = fmt.Errorf("row %d: %w", i, err)
					return
				}
				single[i] = p[0]
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		h.Fatalf("single-row predicts: %v", err)
	}
	batched, err := predict(base, "smoke", rows)
	if err != nil || len(batched) != len(rows) {
		h.Fatalf("batched predict: %d answers for %d rows, %v", len(batched), len(rows), err)
	}
	for i := range rows {
		if math.Float64bits(batched[i]) != math.Float64bits(single[i]) {
			h.Fatalf("row %d: batched %x != single %x", i, math.Float64bits(batched[i]), math.Float64bits(single[i]))
		}
	}
	type modelStats struct {
		Model    string `json:"model"`
		MaxBatch int64  `json:"max_batch"`
	}
	var stats struct {
		Models []modelStats `json:"models"`
	}
	if err := getJSON(base+"/statsz", &stats); err != nil {
		h.Fatal(err)
	}
	if i := slices.IndexFunc(stats.Models, func(m modelStats) bool { return m.Model == "smoke" }); i < 0 || stats.Models[i].MaxBatch < 2 {
		h.Fatalf("no batch of two or more rows in /statsz: %+v", stats.Models)
	}
}

// controlz is the part of the /controlz status document the rollout leg
// checks.
type controlz struct {
	Autoscaler struct {
		Min        int   `json:"min"`
		Size       int   `json:"size"`
		ScaleUps   int64 `json:"scale_ups"`
		ScaleDowns int64 `json:"scale_downs"`
		Flaps      int64 `json:"flaps"`
	} `json:"autoscaler"`
	Errors  int64 `json:"errors"`
	Rollout *struct {
		State  string `json:"state"`
		Reason string `json:"reason"`
	} `json:"rollout"`
}

// controlzUntil polls srv's /controlz until ok holds and returns that
// status.
func (h *harness) controlzUntil(srv *proc, base, what string, ok func(*controlz) bool) *controlz {
	h.Helper()
	var st controlz
	defer func() {
		if h.Failed() {
			h.Logf("last /controlz: %+v", st)
		}
	}()
	h.await(srv, what, func() bool {
		st = controlz{}
		return getJSON(base+"/controlz", &st) == nil && ok(&st)
	})
	return &st
}

// lifecycle drives the control plane at base through scale-up, a canary
// rollout of ckpt as version 60 to promotion, and scale-down. Closed-loop
// load runs until the promotion: each of 16 clients sends its next request
// when the last one answers. Control actions must be invisible to callers,
// so a non-2xx answer is a dropped request and fails the leg, as does a
// request error booked by the control plane or an autoscaler flap.
func lifecycle(h *harness, srv *proc, base, ckpt string) {
	h.Helper()
	const clients, version = 16, 60
	rows := randRows(99, clients, 64)
	var stop atomic.Bool
	var sent atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sent.Add(1)
				if _, err := predict(base, "smoke", rows[c:c+1]); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	halt := sync.OnceFunc(func() {
		stop.Store(true)
		wg.Wait()
	})
	defer halt()

	st := h.controlzUntil(srv, base, "scale-up", func(s *controlz) bool { return s.Autoscaler.Size >= 2 })
	h.Logf("scaled up to %d replicas", st.Autoscaler.Size)
	resp, err := post(base+"/controlz/rollout", map[string]any{"model": "smoke", "path": ckpt, "version": version})
	if err != nil {
		h.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		h.Fatalf("POST /controlz/rollout: %s, want 202 Accepted", resp.Status)
	}
	// The canary is healthy, so promoted is the only right end state.
	h.controlzUntil(srv, base, "promotion", func(s *controlz) bool {
		if ro := s.Rollout; ro != nil && (ro.State == "rolled-back" || ro.State == "failed") {
			h.Fatalf("rollout ended %s (%q) though the canary was healthy", ro.State, ro.Reason)
		}
		return s.Rollout != nil && s.Rollout.State == "promoted"
	})
	type served struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}
	var models struct {
		Models []served `json:"models"`
	}
	if err := getJSON(base+"/v1/models", &models); err != nil {
		h.Fatal(err)
	}
	if !slices.Contains(models.Models, served{"smoke", version}) {
		h.Fatalf("/v1/models does not serve smoke v%d after the promotion: %+v", version, models.Models)
	}

	halt()
	if err := errors.Join(errs...); err != nil {
		h.Fatalf("dropped requests under control actions: %v", err)
	}
	if sent.Load() == 0 {
		h.Fatal("no load was sent")
	}
	st = h.controlzUntil(srv, base, "scale-down", func(s *controlz) bool { return s.Autoscaler.Size <= s.Autoscaler.Min })
	a := st.Autoscaler
	if st.Errors != 0 || a.ScaleUps < 1 || a.ScaleDowns < 1 || a.Flaps != 0 {
		h.Fatalf("control plane booked %d request errors, %d scale-ups, %d scale-downs, %d flaps; want 0, >= 1, >= 1, 0",
			st.Errors, a.ScaleUps, a.ScaleDowns, a.Flaps)
	}
	h.Logf("%d requests, none dropped", sent.Load())
}

// token is one generated token as the SSE stream carries it.
type token struct {
	Index int     `json:"index"`
	Value float64 `json:"token"`
	Step  uint64  `json:"step"`
}

// sse reads one :generate event stream.
type sse struct {
	io.Closer
	sc     *bufio.Scanner
	finish string // the finish reason, once the done event arrived
}

func openStream(base string, prompt []float64, maxTokens int) (*sse, error) {
	resp, err := post(base+"/v1/models/gen:generate", map[string]any{"prompt": prompt, "max_tokens": maxTokens})
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sse{Closer: resp.Body, sc: sc}, nil
}

// next returns the next token. At the done event it records the finish
// reason and returns io.EOF.
func (s *sse) next() (token, error) {
	for s.sc.Scan() {
		payload, ok := strings.CutPrefix(s.sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			token
			Done   bool   `json:"done"`
			Finish string `json:"finish_reason"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return token{}, fmt.Errorf("bad event %q: %w", payload, err)
		}
		switch {
		case ev.Error != "":
			return token{}, fmt.Errorf("error event: %s", ev.Error)
		case ev.Done:
			s.finish = ev.Finish
			return token{}, io.EOF
		}
		return ev.token, nil
	}
	if err := s.sc.Err(); err != nil {
		return token{}, err
	}
	return token{}, errors.New("stream ended without a done event")
}

// generateStream runs one stream to its end and returns its tokens and
// finish reason.
func generateStream(base string, prompt []float64, maxTokens int) ([]token, string, error) {
	s, err := openStream(base, prompt, maxTokens)
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	var toks []token
	for {
		t, err := s.next()
		if err == io.EOF {
			return toks, s.finish, nil
		}
		if err != nil {
			return toks, "", err
		}
		toks = append(toks, t)
	}
}

// firstDiff returns the index of the first token of got that is out of
// place or not bit-identical to want's, or -1 when the streams match.
func firstDiff(got, want []token) int {
	for k := range max(len(got), len(want)) {
		if k >= len(got) || k >= len(want) || got[k].Index != k ||
			math.Float64bits(got[k].Value) != math.Float64bits(want[k].Value) {
			return k
		}
	}
	return -1
}

// checkTrace stops procs — they write <name>.json on graceful shutdown —
// and checks that their dumps merge into one distributed trace: events from
// two or more processes, a flow that starts in one process and finishes in
// another, every span's parent present, and every required span recorded.
func (h *harness) checkTrace(procs []*proc, required ...string) {
	h.Helper()
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		PID  int               `json:"pid"`
		ID   string            `json:"id"`
		Args map[string]string `json:"args"`
	}
	var events []event
	for _, p := range procs {
		p.stop()
		var doc struct {
			TraceEvents []event `json:"traceEvents"`
		}
		b, err := os.ReadFile(h.path(p.name + ".json"))
		if err == nil {
			err = json.Unmarshal(b, &doc)
		}
		if err != nil || len(doc.TraceEvents) == 0 {
			h.Fatalf("%s trace: %d events, %v", p.name, len(doc.TraceEvents), err)
		}
		events = append(events, doc.TraceEvents...)
	}

	pids := map[int]bool{}
	names := map[string]bool{}
	spans := map[[2]string]bool{} // (trace, span) of every span
	// flows maps a flow id to the pids that start it ([0]) and finish it ([1]).
	flows := map[string]*[2]map[int]bool{}
	var children []event
	for _, ev := range events {
		pids[ev.PID] = true
		switch ev.Ph {
		case "X":
			tr, sp := ev.Args["trace"], ev.Args["span"]
			if tr == "" || sp == "" {
				h.Fatalf("span %q in pid %d has no trace or span id", ev.Name, ev.PID)
			}
			names[ev.Name] = true
			spans[[2]string{tr, sp}] = true
			if ev.Args["parent"] != "" {
				children = append(children, ev)
			}
		case "s", "f":
			f := flows[ev.ID]
			if f == nil {
				f = &[2]map[int]bool{{}, {}}
				flows[ev.ID] = f
			}
			side := 0
			if ev.Ph == "f" {
				side = 1
			}
			f[side][ev.PID] = true
		}
	}
	if len(pids) < 2 {
		h.Fatalf("merged trace covers %d process(es), want >= 2: pids %v", len(pids), slices.Sorted(maps.Keys(pids)))
	}
	crosses := func(f *[2]map[int]bool) bool {
		return len(f[0]) > 0 && slices.ContainsFunc(slices.Collect(maps.Keys(f[1])), func(pid int) bool { return !f[0][pid] })
	}
	if !slices.ContainsFunc(slices.Collect(maps.Values(flows)), crosses) {
		// The job output is the only record once the leg's temp dir is
		// gone, so show where each flow starts and finishes.
		for i, id := range slices.Sorted(maps.Keys(flows)) {
			if i == 20 {
				h.Logf("... %d more flows", len(flows)-i)
				break
			}
			f := flows[id]
			h.Logf("flow %s: starts in pids %v, finishes in pids %v", id, slices.Sorted(maps.Keys(f[0])), slices.Sorted(maps.Keys(f[1])))
		}
		h.Fatalf("no flow starts in one process and finishes in another (%d flows)", len(flows))
	}
	for _, ev := range children {
		if !spans[[2]string{ev.Args["trace"], ev.Args["parent"]}] {
			h.Errorf("span %q in pid %d (trace %s) has no parent span %s", ev.Name, ev.PID, ev.Args["trace"], ev.Args["parent"])
		}
	}
	for _, name := range required {
		if !names[name] {
			h.Errorf("no %s span in the merged trace", name)
		}
	}
	if h.Failed() {
		h.FailNow()
	}
}
