package cluster

import (
	"bytes"
	"testing"

	"tfhpc/internal/graph"
	"tfhpc/internal/tensor"
)

// FuzzHandleRunOp: arbitrary bytes through the RunOp request decoder must
// never panic, and an accepted request must re-encode to a canonical form
// that decodes and re-encodes to itself. Only the decode is fuzzed: running
// arbitrary ops with arbitrary attrs (a RandomUniform shape of 2^40) is the
// debugging path's documented trust boundary, not a parser property.
func FuzzHandleRunOp(f *testing.F) {
	for _, r := range []*runOpRequest{
		// The benchmark's remote-op probe.
		{op: "Neg", nodeName: "probe", inputNames: []string{"x"}, inputs: []*tensor.Tensor{tensor.ScalarF64(1.5)}},
		// Variable traffic as the tests drive it.
		{op: "Assign", nodeName: "a0", attrs: graph.Attrs{"var_name": "w"},
			inputNames: []string{"c"}, inputs: []*tensor.Tensor{tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3})}},
		{op: "Variable", nodeName: "r", attrs: graph.Attrs{"var_name": "w"}},
		{op: "QueueEnqueue", nodeName: "enq", attrs: graph.Attrs{"queue": "partials", "capacity": 8},
			inputNames: []string{"c"}, inputs: []*tensor.Tensor{tensor.ScalarF64(2)}},
		{op: "RandomUniform", nodeName: "u", attrs: graph.Attrs{
			"dtype": tensor.Float32, "shape": tensor.Shape{3, 3}, "seed": 1, "lo": -1.0, "flag": true,
			"t": tensor.FromI64(tensor.Shape{2}, []int64{4, 5})}},
	} {
		b, err := encodeRunOp(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRunOp(data)
		if err != nil {
			return
		}
		canon, err := encodeRunOp(r)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		r2, err := decodeRunOp(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		again, err := encodeRunOp(r2)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixpoint (%v):\n got %x\nwant %x", err, again, canon)
		}
	})
}

// FuzzCollInit: arbitrary bytes through the CollInit request decoder must
// never panic, and an accepted request must re-encode to a canonical form
// that decodes and re-encodes to itself. Only the decode is fuzzed: joining
// a group dials the addresses the request names.
func FuzzCollInit(f *testing.F) {
	addrs := []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}
	for _, r := range []*collInit{
		// OpenJob over a whole 3-task job, with and without the fusion
		// count trigger sgd sets.
		{group: "cg", rank: 0, addrs: addrs, epoch: 1760000000000000000},
		{group: "sgd", rank: 2, addrs: addrs, epoch: 1760000000000000001, opts: CollectiveOptions{FlushTensors: 4}},
		// A subset open over the survivors of task 1.
		{group: "sgd", rank: 1, addrs: []string{addrs[0], addrs[2]}, epoch: 1760000000000000002},
	} {
		b := encodeCollInit(r)
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeCollInit(data)
		if err != nil {
			return
		}
		canon := encodeCollInit(r)
		r2, err := decodeCollInit(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if again := encodeCollInit(r2); !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixpoint:\n got %x\nwant %x", again, canon)
		}
	})
}
