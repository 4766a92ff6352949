package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"tfhpc/internal/tensor"
)

// withTrailer appends a valid integrity trailer to payload.
func withTrailer(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, trailerMagic...)
}

// junkAfterTensor is a checkpoint payload of one variable entry, "x", whose
// tensor field holds t's encoding and then one more byte.
func junkAfterTensor(t *tensor.Tensor) []byte {
	tb, err := t.Encode(nil)
	if err != nil {
		panic(err)
	}
	tb = append(tb, 0x07)
	entry := append([]byte{0x0a, 0x01, 'x', 0x12}, byte(len(tb)))
	entry = append(entry, tb...)
	return append([]byte{0x1a, byte(len(entry))}, entry...)
}

var t0 = tensor.FromF64(tensor.Shape{2}, []float64{1, 2})

// TestDecodeRejectsBytesAfterTensor: a variable's tensor field must hold
// exactly one tensor; junk after a valid one is a corrupt checkpoint.
func TestDecodeRejectsBytesAfterTensor(t *testing.T) {
	payload := junkAfterTensor(t0)
	if _, err := Decode(withTrailer(payload)); err == nil {
		t.Fatal("tensor field with a trailing byte accepted")
	}
	// The same entry without the junk byte decodes.
	fixed := slices.Clone(payload)
	fixed[1]--
	fixed[6]--
	fixed = fixed[:len(fixed)-1]
	c, err := Decode(withTrailer(fixed))
	if err != nil || !c.Vars["x"].Equal(t0) {
		t.Fatalf("entry without the junk byte: %v, %v", c, err)
	}
}

// FuzzCheckpointDecode feeds arbitrary payloads to Decode behind a valid CRC
// trailer, so they get past the checksum to the field and tensor parsers.
// No input may panic, and an accepted checkpoint must re-encode to bytes
// that decode and re-encode unchanged.
func FuzzCheckpointDecode(f *testing.F) {
	ck := &Checkpoint{GraphID: "cg:v1", Step: 250, Vars: map[string]*tensor.Tensor{
		"x":     tensor.FromF64(tensor.Shape{4}, []float64{1, 2, 3, 4}),
		"scale": tensor.ScalarF64(0.5),
		"m":     tensor.New(tensor.Float32, 2, 3),
	}}
	buf, err := ck.Encode()
	if err != nil {
		f.Fatal(err)
	}
	payload := buf[:len(buf)-8]
	f.Add(payload)
	f.Add(payload[:len(payload)-3]) // last entry cut short
	f.Add([]byte{})
	f.Add([]byte{0x1a, 0x02, 0x0a, 0x00})             // entry with an empty name and no tensor
	f.Add([]byte{0x1a, 0x04, 0x12, 0x02, 0xee, 0x00}) // entry whose tensor has a bad dtype
	f.Add(junkAfterTensor(t0))                        // entry whose tensor field has bytes after the tensor
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := Decode(withTrailer(payload))
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint fails to encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if again.GraphID != c.GraphID || again.Step != c.Step || len(again.Vars) != len(c.Vars) {
			t.Fatalf("round trip changed the checkpoint: %q/%d/%d vars vs %q/%d/%d vars",
				again.GraphID, again.Step, len(again.Vars), c.GraphID, c.Step, len(c.Vars))
		}
		encAgain, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, encAgain) {
			t.Fatal("encode → decode → encode changed the bytes")
		}
	})
}
