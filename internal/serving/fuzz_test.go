package serving

import (
	"encoding/binary"
	"math"
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
// parser must error or split cleanly — never panic — and any budget it
// yields, however large, must become a deadline that has not already passed.
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
		_, budget, _, model, tb, err := parseStreamPredict(data)
		if err != nil {
			return
		}
		if len(model)+len(tb) > len(data) {
			t.Fatalf("model+tensor %d bytes out of a %d-byte frame", len(model)+len(tb), len(data))
		}
		if dl := budgetDeadline(budget); budget > 0 && dl.Before(start) {
			t.Fatalf("budget %dµs became a deadline %v in the past", budget, start.Sub(dl))
		}
	})
}

// FuzzParseGenerateReq is the same contract for the generate request frame.
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
	f.Add(hugeBudget(frame, 0))
	f.Add(frame[:len(frame)-3]) // prompt no longer a whole number of float64s
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		req, _, _, err := parseGenerateReq(data)
		if err != nil {
			return
		}
		if len(req.Prompt) == 0 {
			t.Fatal("accepted a request with no prompt")
		}
		if !req.Deadline.IsZero() && req.Deadline.Before(start) {
			t.Fatalf("deadline %v in the past", start.Sub(req.Deadline))
		}
	})
}
