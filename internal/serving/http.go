package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// maxBodyBytes bounds a predict request body (64 MiB: a 2M-element f64
// batch in JSON) — admission control starts at the transport.
const maxBodyBytes = 64 << 20

// NewHTTPHandler serves the KServe-style v1 predictor API over any
// Predictor (a local Service or a replica Router):
//
//	POST /v1/models/<name>:predict   {"instances": [[f, ...], ...]}
//	POST /v1/models/<name>:generate  {"prompt": [f, ...], "max_tokens": n, "stop_below": s}
//	                                 → server-sent events, one token per event
//	GET  /v1/models                  list served models
//	GET  /v1/models/<name>           one model's status
//	GET  /healthz                    process liveness
//	GET  /readyz                     traffic readiness (503 until a model serves)
//	GET  /statsz                     batching/admission counters
//	GET  /metricz                    Prometheus text exposition (process-wide)
//
// A predict or generate request may carry X-Deadline-Ms; otherwise the
// predictor's default applies. Outcomes map to 200/400/404/429/503/504.
func NewHTTPHandler(p Predictor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if p.Ready() {
			writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
	})
	mux.Handle("/metricz", telemetry.Handler())
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		buf, err := p.StatsJSON()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": p.Models()})
	})
	mux.HandleFunc("/v1/models/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
		if name, ok := strings.CutSuffix(rest, ":predict"); ok {
			if r.Method != http.MethodPost {
				http.Error(w, "predict wants POST", http.StatusMethodNotAllowed)
				return
			}
			servePredict(w, r, p, name)
			return
		}
		if name, ok := strings.CutSuffix(rest, ":generate"); ok {
			if r.Method != http.MethodPost {
				http.Error(w, "generate wants POST", http.StatusMethodNotAllowed)
				return
			}
			serveGenerate(w, r, p, name)
			return
		}
		for _, m := range p.Models() {
			if m.Name == rest {
				writeJSON(w, http.StatusOK, m)
				return
			}
		}
		writeError(w, fmt.Errorf("%w: %q", ErrNotFound, rest))
	})
	return mux
}

// predictRequest is the KServe v1 predict body: instances is a list of
// feature-vector rows (a flat list is accepted as one row).
type predictRequest struct {
	Instances json.RawMessage `json:"instances"`
}

// decodeRequest is the preamble :predict and :generate share: read the body
// (at most maxBodyBytes), decode its JSON into v, and resolve X-Deadline-Ms
// into a deadline (zero when absent). Errors are canonical.
func decodeRequest(r *http.Request, v any) (time.Time, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if len(body) > maxBodyBytes {
		return time.Time{}, fmt.Errorf("%w: body over %d bytes", ErrOverloaded, maxBodyBytes)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return time.Time{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return time.Time{}, nil
	}
	// A number past int64 is still a (very long) deadline: ParseInt reports
	// it as ErrRange with the value saturated, as budgetDeadline saturates
	// the rest.
	ms, err := strconv.ParseInt(h, 10, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || ms <= 0 {
		return time.Time{}, fmt.Errorf("%w: bad X-Deadline-Ms %q", ErrBadInput, h)
	}
	return budgetDeadline(uint64(ms), time.Millisecond), nil
}

func servePredict(w http.ResponseWriter, r *http.Request, p Predictor, model string) {
	var req predictRequest
	deadline, err := decodeRequest(r, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	in, err := instancesTensor(req.Instances)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := p.Predict(model, in, deadline)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"predictions": predictions(out)})
}

// instancesTensor parses instances into a [n, features] float64 tensor.
func instancesTensor(raw json.RawMessage) (*tensor.Tensor, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: missing instances", ErrBadInput)
	}
	var rows [][]float64
	if err := json.Unmarshal(raw, &rows); err != nil {
		var flat []float64
		if err2 := json.Unmarshal(raw, &flat); err2 != nil {
			return nil, fmt.Errorf("%w: instances must be [][]float or []float", ErrBadInput)
		}
		rows = [][]float64{flat}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: empty instances", ErrBadInput)
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: empty feature row", ErrBadInput)
	}
	buf := make([]float64, 0, len(rows)*d)
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("%w: row %d has %d features, row 0 has %d", ErrBadInput, i, len(row), d)
		}
		buf = append(buf, row...)
	}
	return tensor.FromF64(tensor.Shape{len(rows), d}, buf), nil
}

// predictions renders the output tensor: [n] → n scalars, [n, k] → n
// k-vectors.
func predictions(out *tensor.Tensor) []any {
	n := 0
	if out.Rank() >= 1 {
		n = out.Shape()[0]
	}
	preds := make([]any, 0, n)
	stride := 1
	if out.Rank() >= 2 {
		stride = out.Shape()[1:].NumElements()
	}
	elem := func(i int) float64 {
		if out.DType() == tensor.Float32 {
			return float64(out.F32()[i])
		}
		return out.F64()[i]
	}
	for i := 0; i < n; i++ {
		if out.Rank() <= 1 {
			preds = append(preds, elem(i))
			continue
		}
		vec := make([]float64, stride)
		for j := range vec {
			vec[j] = elem(i*stride + j)
		}
		preds = append(preds, vec)
	}
	return preds
}

// httpStatuses maps each wire status byte onto its HTTP status code.
var httpStatuses = [...]int{
	stOK: http.StatusOK, stNotFound: http.StatusNotFound, stOverloaded: http.StatusTooManyRequests,
	stDeadline: http.StatusGatewayTimeout, stBadInput: http.StatusBadRequest,
	stClosed: http.StatusServiceUnavailable, stError: http.StatusInternalServerError,
}

// HTTPStatus maps a serving error onto its HTTP status code.
func HTTPStatus(err error) int { return httpStatuses[statusOf(err)] }

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, HTTPStatus(err), map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
