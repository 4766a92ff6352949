package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 300)
	e.Int(2, -42)
	e.Bool(3, true)
	e.Double(4, math.Pi)
	e.Float(5, 2.5)
	e.String(6, "worker")
	e.BytesField(7, []byte{0, 1, 2})

	d := NewDecoder(e.Bytes())
	expect := func(wantField int, wantWT WireType) {
		f, wt, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if f != wantField || wt != wantWT {
			t.Fatalf("field %d/%v, want %d/%v", f, wt, wantField, wantWT)
		}
	}
	expect(1, TVarint)
	if v, _ := d.Uint(); v != 300 {
		t.Fatalf("Uint = %d", v)
	}
	expect(2, TVarint)
	if v, _ := d.Int(); v != -42 {
		t.Fatalf("Int = %d", v)
	}
	expect(3, TVarint)
	if v, _ := d.Bool(); !v {
		t.Fatal("Bool")
	}
	expect(4, TFixed64)
	if v, _ := d.Double(); v != math.Pi {
		t.Fatalf("Double = %v", v)
	}
	expect(5, TFixed32)
	if v, _ := d.Float(); v != 2.5 {
		t.Fatalf("Float = %v", v)
	}
	expect(6, TBytes)
	if v, _ := d.StringVal(); v != "worker" {
		t.Fatalf("String = %q", v)
	}
	expect(7, TBytes)
	if v, _ := d.Bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("Bytes = %v", v)
	}
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestNestedMessage(t *testing.T) {
	e := NewEncoder()
	e.Message(1, func(sub *Encoder) {
		sub.String(1, "ps")
		sub.Uint(2, 8888)
	})
	e.Uint(2, 99)

	d := NewDecoder(e.Bytes())
	f, wt, _ := d.Next()
	if f != 1 || wt != TBytes {
		t.Fatalf("outer field %d/%v", f, wt)
	}
	inner, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	sd := NewDecoder(inner)
	sd.Next()
	if s, _ := sd.StringVal(); s != "ps" {
		t.Fatalf("inner string %q", s)
	}
	sd.Next()
	if v, _ := sd.Uint(); v != 8888 {
		t.Fatalf("inner uint %d", v)
	}
	f, _, _ = d.Next()
	if f != 2 {
		t.Fatalf("second outer field %d", f)
	}
	if v, _ := d.Uint(); v != 99 {
		t.Fatal("outer uint")
	}
}

func TestSkipUnknownFields(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 5)
	e.Double(2, 1.5)
	e.String(3, "xyz")
	e.Float(4, 1)
	e.Uint(5, 10)

	d := NewDecoder(e.Bytes())
	// Skip everything except field 5.
	for {
		f, wt, err := d.Next()
		if err == io.EOF {
			t.Fatal("field 5 not found")
		}
		if f == 5 {
			v, err := d.Uint()
			if err != nil || v != 10 {
				t.Fatalf("field 5 = %d, %v", v, err)
			}
			return
		}
		if err := d.Skip(wt); err != nil {
			t.Fatalf("skip: %v", err)
		}
	}
}

func TestZigZagQuick(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder()
		e.Int(1, v)
		d := NewDecoder(e.Bytes())
		d.Next()
		got, err := d.Int()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleQuick(t *testing.T) {
	f := func(v float64) bool {
		e := NewEncoder()
		e.Double(1, v)
		d := NewDecoder(e.Bytes())
		d.Next()
		got, err := d.Double()
		return err == nil && math.Float64bits(got) == math.Float64bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{7}, 100000),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello world"))
	trunc := buf.Bytes()[:8]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame should error")
	}
}

func TestDecoderTruncationErrors(t *testing.T) {
	e := NewEncoder()
	e.Double(1, 1)
	full := e.Bytes()
	d := NewDecoder(full[:len(full)-2])
	d.Next()
	if _, err := d.Double(); err == nil {
		t.Fatal("truncated double should error")
	}

	e2 := NewEncoder()
	e2.BytesField(1, []byte("abcdef"))
	full2 := e2.Bytes()
	d2 := NewDecoder(full2[:len(full2)-3])
	d2.Next()
	if _, err := d2.Bytes(); err == nil {
		t.Fatal("truncated bytes should error")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 1)
	if e.Len() == 0 {
		t.Fatal("expected bytes")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset should clear")
	}
}

// TestUvarintCanonical: Uvarint reads exactly the minimal encodings
// binary.AppendUvarint writes and refuses padded, truncated and overlong
// ones.
func TestUvarintCanonical(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 35, math.MaxUint64} {
		b := binary.AppendUvarint(nil, v)
		if got, n := Uvarint(b); got != v || n != len(b) {
			t.Errorf("Uvarint(%x) = %d, %d; want %d, %d", b, got, n, v, len(b))
		}
	}
	for name, b := range map[string][]byte{
		"padded zero": {0x80, 0x00},
		"padded one":  {0x81, 0x80, 0x00},
		"truncated":   {0x80},
		"empty":       {},
		"overlong":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if _, n := Uvarint(b); n > 0 {
			t.Errorf("%s: Uvarint(%x) accepted %d bytes", name, b, n)
		}
	}
}
