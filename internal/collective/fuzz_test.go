package collective

import (
	"bytes"
	"testing"

	"tfhpc/internal/tensor"
)

// FuzzParseChunk feeds arbitrary bytes to the relay-record parser every
// stream edge runs on untrusted input. Malformed records must come back as
// errors — never a panic — and whatever parses must survive appendChunk →
// parseChunk unchanged.
func FuzzParseChunk(f *testing.F) {
	for _, t := range []*tensor.Tensor{
		tensor.RandomUniform(tensor.Float64, 1, 64),
		tensor.RandomUniform(tensor.Float32, 2, 7),
		tensor.New(tensor.Int32, 0),
		tensor.RandomUniform(tensor.Float64, 3, 2, 3),
	} {
		rec, err := appendChunk(nil, "1\x00ar/rs", 42, t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)-1]) // truncated payload
		f.Add(append(rec, 0))   // trailing byte
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'k'}) // key length past the record

	f.Fuzz(func(t *testing.T, data []byte) {
		key, tag, ten, err := parseChunk(data)
		if err != nil {
			return
		}
		defer tensor.Recycle(ten)
		again, err := appendChunk(nil, string(key), tag, ten)
		if err != nil {
			t.Fatalf("parsed chunk does not re-encode: %v", err)
		}
		key2, tag2, ten2, err := parseChunk(again)
		if err != nil {
			t.Fatalf("re-encoded chunk does not parse: %v", err)
		}
		defer tensor.Recycle(ten2)
		if !bytes.Equal(key, key2) || tag != tag2 || !ten.Shape().Equal(ten2.Shape()) || ten.DType() != ten2.DType() {
			t.Fatalf("round trip changed the record: key %q→%q tag %d→%d", key, key2, tag, tag2)
		}
	})
}
