package session

import (
	"bytes"
	"testing"

	"tfhpc/internal/tensor"
)

// frameSeeds are one frame of each kind, built by the encoder.
func frameSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, f := range []*frame{
		{kind: frameRegister, handle: 7, graph: []byte("\x0a\x03\x0a\x01x")},
		{kind: frameRun, handle: 7, run: 300, keys: []uint64{0, 129},
			vals: []*tensor.Tensor{tensor.ScalarF64(0.5), tensor.FromF32(tensor.Shape{2, 2}, []float32{1, 2, 3, 4})}},
		{kind: frameRun, handle: 1, run: 1},
		{kind: frameTensor, run: 300, keys: []uint64{3}, vals: []*tensor.Tensor{tensor.FromBool(tensor.Shape{3}, []bool{true, false, true})}},
		{kind: frameTensor, run: 2, keys: []uint64{1}, vals: []*tensor.Tensor{controlMarker}},
		{kind: frameDone, run: 300},
		{kind: frameDone, run: 300, errMsg: "ops: Add (node \"bad\"): shape mismatch"},
		{kind: frameAbort, run: 1 << 40},
		{kind: frameHead, run: 9, keys: []uint64{2}, shape: tensor.Shape{2, 3},
			vals: []*tensor.Tensor{tensor.FromF64(tensor.Shape{4}, []float64{1, 2, 3, 4})}},
		{kind: frameMore, run: 9, keys: []uint64{2}, vals: []*tensor.Tensor{tensor.FromF64(tensor.Shape{2}, []float64{5, 6})}},
	} {
		b, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	for _, b := range frameSeeds(t) {
		f, err := decodeFrame(b)
		if err != nil {
			t.Fatalf("decode %x: %v", b, err)
		}
		re, err := appendFrame(nil, &f)
		if err != nil || !bytes.Equal(re, b) {
			t.Fatalf("re-encoding %x gave %x, %v", b, re, err)
		}
	}
}

// A chunked value assembles only from a head then in-order chunks that fit.
func TestRendezvousChunks(t *testing.T) {
	chunk := func(kind byte, vals ...float64) *frame {
		f := &frame{kind: kind, keys: []uint64{4}, vals: []*tensor.Tensor{tensor.FromF64(tensor.Shape{len(vals)}, vals)}}
		if kind == frameHead {
			f.shape = tensor.Shape{2, 2}
		}
		return f
	}
	rv := newRendezvous()
	if err := rv.deliver(chunk(frameMore, 1)); err == nil {
		t.Fatal("a chunk before its head was accepted")
	}
	if err := rv.deliver(chunk(frameHead, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := rv.deliver(chunk(frameHead, 1, 2)); err == nil {
		t.Fatal("a second head was accepted")
	}
	if err := rv.deliver(chunk(frameMore, 3, 4, 5)); err == nil {
		t.Fatal("a chunk overrunning its value was accepted")
	}
	if v := rv.value(4); v != nil {
		t.Fatal("value visible before its last chunk")
	}
	if err := rv.deliver(chunk(frameMore, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if v, err := rv.get(4); err != nil || !v.Equal(tensor.FromF64(tensor.Shape{2, 2}, []float64{1, 2, 3, 4})) {
		t.Fatalf("assembled %v, %v", v, err)
	}
}

func TestFrameRejects(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":             {},
		"unknown kind":      {9, 0},
		"padded varint":     {frameAbort, 0x80, 0x00},
		"trailing byte":     {frameAbort, 1, 0},
		"truncated tensor":  {frameTensor, 1, 1, byte(tensor.Float64), 0, 1, 2, 3},
		"missing values":    {frameRun, 1, 1, 2},
		"bool byte":         {frameTensor, 1, 1, byte(tensor.Bool), 0, 2},
		"padded tensor dim": {frameTensor, 1, 1, byte(tensor.Bool), 1, 0x81, 0x00, 1},
		// A dozen header bytes that claim gigabytes must be refused before
		// anything is allocated for them.
		"huge claim": {frameTensor, 1, 1, byte(tensor.Float64), 2, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0x0f},
		"huge shape": {frameHead, 1, 1, 2, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0x0f, byte(tensor.Bool), 0},
		"rank 33":    append([]byte{frameHead, 1, 1, 33}, make([]byte, 33)...),
	} {
		if _, err := decodeFrame(b); err == nil {
			t.Errorf("%s: %x accepted", name, b)
		}
	}
}

// FuzzRunGraphFrame: arbitrary bytes through the partition frame decoder
// must never panic, and a frame it accepts must re-encode to exactly its own
// bytes. Besides the encoder's seeds below, testdata/fuzz/FuzzRunGraphFrame
// holds frames captured off the wire of a cluster sgd run (2 workers, 16
// features, 4 rows, 3 steps): its registrations, its variable-init,
// step and read-back run frames, the loss and weight tensors coming back,
// and a done frame.
func FuzzRunGraphFrame(f *testing.F) {
	for _, b := range frameSeeds(f) {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		re, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}
