package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// seedMessages is the fuzz seed corpus: well-formed encodings of each wire
// type plus known-nasty shapes (truncated varints, huge length prefixes).
func seedMessages() [][]byte {
	var seeds [][]byte
	e := NewEncoder()
	e.Uint(1, 0)
	e.Uint(2, 1<<63)
	e.Int(3, -1)
	e.Bool(4, true)
	e.Double(5, 3.25)
	e.Float(6, -0.5)
	e.BytesField(7, []byte("payload"))
	e.String(8, "name")
	e.Message(9, func(sub *Encoder) { sub.Uint(1, 42) })
	seeds = append(seeds, append([]byte(nil), e.Bytes()...))
	seeds = append(seeds,
		nil,
		[]byte{0x08}, // tag then nothing
		[]byte{0x80}, // unterminated varint
		[]byte{0x12, 0xff, 0xff, 0xff, 0xff, 0x7f}, // bytes field longer than the buffer
		// bytes field of length 2^63: wrapped negative, it once passed both
		// bounds checks and panicked slicing.
		[]byte{0x12, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		[]byte{0x0a, 0x02, 0x01},                     // nested message truncated
		bytes.Repeat([]byte{0x80}, 16),               // varint overlong
		[]byte{0x19, 1, 2, 3},                        // fixed64 truncated
		[]byte{0x3d, 1, 2},                           // fixed32 truncated
		append([]byte{0x0a, 0x03}, []byte("abc")...), // exact-fit bytes
	)
	return seeds
}

// FuzzDecoder walks arbitrary bytes through the field decoder. Malformed
// input must surface as an error from Next/Skip — never a panic or an
// infinite loop — and whatever decodes must re-encode to the same bytes the
// decoder consumed (the round-trip property the RPC layer relies on).
func FuzzDecoder(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		e := NewEncoder()
		for {
			field, wt, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // malformed: an error is the contract
			}
			switch wt {
			case TVarint:
				v, err := d.Uint()
				if err != nil {
					return
				}
				e.Uint(field, v)
			case TFixed64:
				v, err := d.Double()
				if err != nil {
					return
				}
				e.Double(field, v)
			case TFixed32:
				v, err := d.Float()
				if err != nil {
					return
				}
				e.Float(field, v)
			case TBytes:
				b, err := d.Bytes()
				if err != nil {
					return
				}
				e.BytesField(field, b)
			default:
				if d.Skip(wt) == nil {
					t.Fatalf("Skip accepted unknown wire type %d", wt)
				}
				return
			}
		}
		// Everything decoded cleanly: the re-encoding is canonical (the input
		// may have used overlong varints), so decoding it again and
		// re-encoding must be a fixed point — any drift means a field was
		// mangled in one direction or the other.
		again, ok := reencode(e.Bytes())
		if !ok {
			t.Fatalf("re-encoded message failed to decode: %x", e.Bytes())
		}
		if !bytes.Equal(again, e.Bytes()) {
			t.Fatalf("canonical encoding not a fixed point:\n in  %x\n out %x", e.Bytes(), again)
		}
	})
}

// reencode decodes a message and encodes it back field by field.
func reencode(data []byte) ([]byte, bool) {
	d := NewDecoder(data)
	e := NewEncoder()
	for {
		field, wt, err := d.Next()
		if err == io.EOF {
			return e.Bytes(), true
		}
		if err != nil {
			return nil, false
		}
		switch wt {
		case TVarint:
			v, err := d.Uint()
			if err != nil {
				return nil, false
			}
			e.Uint(field, v)
		case TFixed64:
			v, err := d.Double()
			if err != nil {
				return nil, false
			}
			e.Double(field, v)
		case TFixed32:
			v, err := d.Float()
			if err != nil {
				return nil, false
			}
			e.Float(field, v)
		case TBytes:
			b, err := d.Bytes()
			if err != nil {
				return nil, false
			}
			e.BytesField(field, b)
		default:
			return nil, false
		}
	}
}

// FuzzFrameRoundTrip frames arbitrary payloads and reads them back through
// every frame reader; all three must agree with the original bytes.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Add(bytes.Repeat([]byte{0xa5}, 1<<12))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		framed := buf.Bytes()

		got, err := ReadFrame(bytes.NewReader(framed))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("ReadFrame: %v (got %d bytes, want %d)", err, len(got), len(payload))
		}
		pooled, err := NewFrameReader(bytes.NewReader(framed), 16).Next()
		if err != nil || !bytes.Equal(pooled, payload) {
			t.Fatalf("FrameReader: %v", err)
		}
		PutBuf(pooled)
		// A byte at a time, with a timeout after the first byte: the failed
		// call keeps what it read, and the next one returns the whole frame.
		fr := NewFrameReader(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(framed))), 16)
		if _, err := fr.Next(); err != iotest.ErrTimeout {
			t.Fatalf("FrameReader over a timing-out reader: %v, want ErrTimeout", err)
		}
		resumed, err := fr.Next()
		if err != nil || !bytes.Equal(resumed, payload) {
			t.Fatalf("FrameReader after a timeout: %v (got %d bytes, want %d)", err, len(resumed), len(payload))
		}
		PutBuf(resumed)
	})
}

// FuzzReadFrame feeds raw bytes to the frame readers: truncated headers,
// bogus lengths and short payloads must error, never panic, and
// FrameReader and the plain reader must agree on accept/reject.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})    // length far past the 2 GiB cap
	f.Add([]byte{0x80, 0x00, 0x00, 0x01, 1}) // 2 GiB + 1
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3})       // payload shorter than header
	f.Add([]byte{0, 0, 0, 2, 9, 8, 7})       // trailing garbage after frame
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, errPlain := ReadFrame(bytes.NewReader(data))
		pooled, errPooled := NewFrameReader(bytes.NewReader(data), 16).Next()
		if (errPlain == nil) != (errPooled == nil) {
			t.Fatalf("readers disagree: plain err=%v pooled err=%v", errPlain, errPooled)
		}
		if errPlain == nil {
			if !bytes.Equal(plain, pooled) {
				t.Fatalf("readers decoded different payloads")
			}
			PutBuf(pooled)
		}
	})
}
