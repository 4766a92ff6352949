package serving

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tfhpc/internal/rpc"
	"tfhpc/internal/serving/generate"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// captureFrame returns the first frame send puts on a stream of the given
// method — a request exactly as the real client encoder builds it.
func captureFrame(f *testing.F, method string, send func(c *rpc.Client)) []byte {
	f.Helper()
	got := make(chan []byte, 1)
	srv := rpc.NewServer()
	srv.HandleStream(method, func(st *rpc.Stream) error {
		b, err := st.Recv(nil)
		if err != nil {
			return err
		}
		got <- append([]byte(nil), b...)
		return nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	c := rpc.Dial(addr)
	defer c.Close()
	send(c)
	select {
	case b := <-got:
		return b
	case <-time.After(5 * time.Second):
		f.Fatalf("no %s frame captured", method)
		return nil
	}
}

// hugeBudget replaces the budget uvarint at frame[skip:] with the largest
// one: the value that used to wrap the deadline negative.
func hugeBudget(frame []byte, skip int) []byte {
	_, n := binary.Uvarint(frame[skip:])
	out := append([]byte(nil), frame[:skip]...)
	out = binary.AppendUvarint(out, math.MaxUint64)
	return append(out, frame[skip+n:]...)
}

// FuzzParseStreamPredict: arbitrary bytes through the predict request
// parser must error or split cleanly — never panic — any budget it yields,
// however large, must become a deadline that has not already passed, and an
// accepted frame must re-encode through the client's encoder (reqID, then
// appendHeader, as PredictTraced builds it) to the very same bytes.
func FuzzParseStreamPredict(f *testing.F) {
	for _, in := range []*tensor.Tensor{sliceRow(randRows(1, 16, 1), 0), randRows(3, 4, 2)} {
		frame := captureFrame(f, PredictStreamMethod, func(c *rpc.Client) {
			ps, err := OpenPredictStream(c)
			if err != nil {
				f.Fatal(err)
			}
			defer ps.Close()
			ps.PredictTraced(telemetry.SpanContext{Trace: 7, Span: 9}, "lin", in, time.Now().Add(time.Second))
		})
		f.Add(frame)
		f.Add(hugeBudget(frame, 1)) // the 1-byte reqID comes first
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		reqID, budget, tsc, model, tb, err := parseStreamPredict(data)
		if err != nil {
			return
		}
		if dl := budgetDeadline(budget, time.Microsecond); budget > 0 && dl.Before(start) {
			t.Fatalf("budget %dµs became a deadline %v in the past", budget, start.Sub(dl))
		}
		re := appendHeader(binary.AppendUvarint(nil, reqID), budget, tsc, string(model))
		if re = append(re, tb...); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzParseGenerateReq is the same contract for the generate request frame,
// whose client encoder is appendGenerateReq.
func FuzzParseGenerateReq(f *testing.F) {
	frame := captureFrame(f, GenerateStreamMethod, func(c *rpc.Client) {
		gs, err := OpenGenerateStream(c, telemetry.SpanContext{Trace: 3, Span: 4}, "gen", generate.Request{
			Prompt: []float64{0.5, -1, 2}, MaxTokens: 16, StopBelow: 1e-3, Deadline: time.Now().Add(time.Second),
		})
		if err != nil {
			f.Fatal(err)
		}
		gs.Next() // returns once the capturing handler has read the frame and closed
	})
	f.Add(frame)
	f.Add(hugeBudget(frame, 0)) // the shared header comes first
	f.Add(frame[:len(frame)-3]) // prompt no longer a whole number of float64s
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		budget, tsc, model, req, err := parseGenerateReq(data)
		if err != nil {
			return
		}
		if len(req.Prompt) == 0 {
			t.Fatal("accepted a request with no prompt")
		}
		if dl := budgetDeadline(budget, time.Microsecond); budget > 0 && dl.Before(start) {
			t.Fatalf("budget %dµs became a deadline %v in the past", budget, start.Sub(dl))
		}
		if re := appendGenerateReq(nil, budget, tsc, model, req); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzHTTPRequest drives the HTTP front-end's request decoding — the shared
// preamble (body, JSON, X-Deadline-Ms), then instancesTensor for :predict
// and decodeGenerate for :generate — with arbitrary bodies and deadline
// headers. It must never panic; an accepted deadline has not already
// passed, an accepted predict body is an [n, d] float64 tensor with n, d ≥ 1,
// and an accepted generate body has a prompt.
func FuzzHTTPRequest(f *testing.F) {
	smokeRow := strings.Repeat("0.1,", 31) + "0.1"
	for _, body := range []string{
		// http_test.go
		`{"instances": [[1,1,1,1,1,1],[0,0,0,0,0,0]]}`,
		`{"instances": [0,0,0,0,0,0]}`,
		`{"instances": [[1,2,3]]}`,
		`{"instances": []}`,
		`not json`,
		`{}`,
		// the telemetry smoke leg's routed-predict body; the other legs
		// marshal the same shapes.
		`{"instances": [[` + smokeRow + `]]}`,
		// generative_test.go and the generate smoke leg
		`{"prompt": [0.5, -1, 2, 0.25], "max_tokens": 25}`,
		`{"prompt": [0.5], "max_tokens": 1048576, "stop_below": 0.001}`,
		`{"prompt": [], "max_tokens": 5}`,
	} {
		for _, deadline := range []string{"", "250", "9223372036854775807", "99999999999999999999", "0", "-1", "+5", "soon"} {
			f.Add([]byte(body), deadline)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte, deadlineHdr string) {
		request := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if deadlineHdr != "" {
				r.Header.Set("X-Deadline-Ms", deadlineHdr)
			}
			return r
		}
		start := time.Now()
		var pr predictRequest
		if deadline, err := decodeRequest(request(), &pr); err == nil {
			if !deadline.IsZero() && deadline.Before(start) {
				t.Fatalf("X-Deadline-Ms %q became a deadline %v in the past", deadlineHdr, start.Sub(deadline))
			}
			if in, err := instancesTensor(pr.Instances); err == nil {
				if s := in.Shape(); in.DType() != tensor.Float64 || len(s) != 2 || s[0] < 1 || s[1] < 1 {
					t.Fatalf("accepted predict body became a %v %v tensor", in.DType(), s)
				}
			}
		}
		if req, err := decodeGenerate(request()); err == nil && len(req.Prompt) == 0 {
			t.Fatal("accepted a generate body with no prompt")
		}
	})
}

// serverFrames sends req — encoded by the real client — to the real server
// on a raw stream and returns every response frame. With wait set it reads
// nothing until the engine has stalled the sequence, so the frames after the
// next credit grant carry a full token window.
func serverFrames(f *testing.F, c *rpc.Client, svc *Service, model string, req generate.Request, wait bool) [][]byte {
	f.Helper()
	reqFrame := captureFrame(f, GenerateStreamMethod, func(c *rpc.Client) {
		if gs, err := OpenGenerateStream(c, telemetry.SpanContext{}, model, req); err == nil {
			gs.Next()
		}
	})
	st, err := c.OpenStream(GenerateStreamMethod)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(reqFrame); err != nil {
		f.Fatal(err)
	}
	if wait {
		waitGenStats(f, svc, "a stalled sequence", func(s generate.Stats) bool { return s.Stalls > 0 })
	}
	var frames [][]byte
	for {
		b, err := st.Recv(nil)
		if err != nil {
			return frames
		}
		frames = append(frames, b)
	}
}

// FuzzParseGenerateFrame: arbitrary bytes through the token-frame parser
// must never panic, and a frame it accepts must be whole — exactly n tokens
// with consecutive indexes — and re-encode to the very same bytes.
func FuzzParseGenerateFrame(f *testing.F) {
	addr, svc := startGenServer(f, 4)
	c := rpc.Dial(addr)
	defer c.Close()
	prompt := []float64{0.5, -1, 2, 0.25}
	one := serverFrames(f, c, svc, "gen", generate.Request{Prompt: prompt, MaxTokens: 1}, false)
	if len(one) != 2 || one[0][0] != gfToken || one[1][0] != gfDone {
		f.Fatalf("one-token sequence: want a token and a done frame, got %q", one)
	}
	var full []byte // the largest token frame of a stalled sequence
	for _, b := range serverFrames(f, c, svc, "gen", generate.Request{Prompt: prompt, MaxTokens: 4096}, true) {
		if b[0] == gfToken && len(b) > len(full) {
			full = b
		}
	}
	// A stalled slot holds a full window (TokenWindow = 32); the first frame
	// drained after the stall takes one token plus a snapshot of ≥ 31 more.
	if toks, err := parseTokenFrame(nil, full); err != nil || len(toks) < 32 {
		f.Fatalf("stalled sequence sent no window-full frame (%d tokens, %v)", len(toks), err)
	}
	notFound := serverFrames(f, c, svc, "nope", generate.Request{Prompt: prompt, MaxTokens: 1}, false)
	if len(notFound) != 1 || notFound[0][0] != gfError {
		f.Fatalf("unknown model: want one error frame, got %q", notFound)
	}
	for _, frame := range [][]byte{one[0], full, one[1], notFound[0]} {
		f.Add(frame)
	}
	f.Add(full[:len(full)-3])                                              // last value truncated
	f.Add(append(full, 0))                                                 // trailing byte
	f.Add([]byte{gfToken, 0x80, 0x00, 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0}) // padded index uvarint
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		toks, err := parseTokenFrame(nil, data)
		if err != nil {
			if len(toks) != 0 {
				t.Fatalf("rejected frame still yielded %d tokens", len(toks))
			}
			return
		}
		first, k := binary.Uvarint(data[1:])
		n, _ := binary.Uvarint(data[1+k:])
		if uint64(len(toks)) != n || n == 0 {
			t.Fatalf("accepted frame announces %d tokens, yielded %d", n, len(toks))
		}
		for i, tok := range toks {
			if uint64(tok.Index) != first+uint64(i) {
				t.Fatalf("token %d has index %d, want %d", i, tok.Index, first+uint64(i))
			}
		}
		if re := appendTokenFrame(nil, toks); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}
