package serving

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"tfhpc/internal/serving/generate"
)

// generateRequest is the POST /v1/models/<name>:generate body.
type generateRequest struct {
	// Prompt is the initial sequence state (length = model feature width).
	Prompt []float64 `json:"prompt"`
	// MaxTokens caps the generated sequence; <=0 takes the server cap.
	MaxTokens int `json:"max_tokens"`
	// StopBelow, when positive, is the EOS threshold: |token| < StopBelow
	// ends the sequence.
	StopBelow float64 `json:"stop_below"`
}

// decodeGenerate reads a :generate request through the shared preamble.
func decodeGenerate(r *http.Request) (generate.Request, error) {
	var body generateRequest
	deadline, err := decodeRequest(r, &body)
	if err != nil {
		return generate.Request{}, err
	}
	if len(body.Prompt) == 0 {
		return generate.Request{}, fmt.Errorf("%w: missing prompt", ErrBadInput)
	}
	return generate.Request{
		Prompt:    body.Prompt,
		MaxTokens: body.MaxTokens,
		StopBelow: body.StopBelow,
		Deadline:  deadline,
	}, nil
}

// serveGenerate streams one generation as server-sent events. Each token is
// one `data:` event; a final event carries the finish reason. Errors before
// the first byte map to the usual JSON error + status; once streaming, an
// `event: error` frame ends the stream instead (the status line is spent).
// A client disconnect cancels the sequence, freeing its decode slot.
func serveGenerate(w http.ResponseWriter, r *http.Request, p Predictor, model string) {
	req, err := decodeGenerate(r)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := p.Generate(model, req)
	if err != nil {
		writeError(w, err)
		return
	}
	// From here the sequence owns a queue position (and soon a slot):
	// whatever exit path the handler takes, the engine must hear about a
	// gone consumer, or its slot leaks until MaxTokens.
	stop := context.AfterFunc(r.Context(), st.Cancel)
	defer stop()
	defer st.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	buf := make([]byte, 0, 128)
	tokens := 0
	// One Flush per drained window, as the rpc front-end sends one frame.
	for toks, ok := nextWindow(st, nil); ok; toks, ok = nextWindow(st, toks) {
		buf = buf[:0]
		for _, tok := range toks {
			// Hand-rolled event body: FormatFloat 'g'/-1 round-trips the
			// exact float64 bits, which the smoke client asserts token for
			// token.
			buf = append(buf, `data: {"index":`...)
			buf = strconv.AppendInt(buf, int64(tok.Index), 10)
			buf = append(buf, `,"token":`...)
			buf = strconv.AppendFloat(buf, tok.Value, 'g', -1, 64)
			buf = append(buf, `,"step":`...)
			buf = strconv.AppendUint(buf, tok.Step, 10)
			buf = append(buf, "}\n\n"...)
		}
		tokens += len(toks)
		if _, err := w.Write(buf); err != nil {
			return // client gone; the deferred Cancel frees the slot
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	reason, ferr := st.Finish()
	if ferr != nil {
		fmt.Fprintf(w, "event: error\ndata: {\"error\":%q,\"status\":%d}\n\n", ferr.Error(), HTTPStatus(ferr))
	} else {
		fmt.Fprintf(w, "data: {\"done\":true,\"finish_reason\":%q,\"tokens\":%d}\n\n", reason, tokens)
	}
	if flusher != nil {
		flusher.Flush()
	}
}
