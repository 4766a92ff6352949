package npy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tfhpc/internal/tensor"
)

func roundTrip(t *testing.T, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func TestRoundTripDTypes(t *testing.T) {
	cases := []*tensor.Tensor{
		tensor.FromF32(tensor.Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6}),
		tensor.FromF64(tensor.Shape{4}, []float64{1.5, -2.5, 0, 1e300}),
		tensor.FromI64(tensor.Shape{3}, []int64{-1, 0, 1 << 40}),
		tensor.FromC128(tensor.Shape{2}, []complex128{1 + 2i, -3 - 4i}),
		tensor.ScalarF64(42),
		tensor.RandomUniform(tensor.Float32, 9, 16, 16),
		// Payloads of several staging chunks, the last one partial.
		tensor.RandomUniform(tensor.Float32, 10, 3, 10007),
		tensor.RandomUniform(tensor.Float64, 11, 3, 10007),
		tensor.RandomUniform(tensor.Int64, 12, 3, 10007),
		tensor.RandomUniform(tensor.Complex128, 13, 3, 10007),
	}
	for _, in := range cases {
		out := roundTrip(t, in)
		if !in.Equal(out) {
			t.Fatalf("round trip mismatch for %v", in)
		}
	}
}

func TestHeaderIsNumPyCompatible(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tensor.FromF32(tensor.Shape{4096}, make([]float32, 4096))); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if string(b[:6]) != "\x93NUMPY" {
		t.Fatalf("magic = %q", b[:6])
	}
	if b[6] != 1 || b[7] != 0 {
		t.Fatalf("version = %d.%d", b[6], b[7])
	}
	hlen := int(b[8]) | int(b[9])<<8
	// Total header must be 64-byte aligned per the format spec.
	if (10+hlen)%64 != 0 {
		t.Fatalf("header not 64-aligned: %d", 10+hlen)
	}
	hdr := string(b[10 : 10+hlen])
	for _, want := range []string{"'descr': '<f4'", "'fortran_order': False", "'shape': (4096,)"} {
		if !bytes.Contains([]byte(hdr), []byte(want)) {
			t.Fatalf("header missing %q: %q", want, hdr)
		}
	}
	if hdr[len(hdr)-1] != '\n' {
		t.Fatal("header must end in newline")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("notnumpy"))); err == nil {
		t.Fatal("bad magic should error")
	}
	var buf bytes.Buffer
	Write(&buf, tensor.ScalarF64(1))
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "Tile_1_2.npy")
	in := tensor.RandomUniform(tensor.Float32, 3, 64, 64)
	if err := Save(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := Load(filepath.Join(dir, "missing.npy")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(vals []float64) bool {
		tt := tensor.FromF64(tensor.Shape{len(vals)}, vals)
		var buf bytes.Buffer
		if err := Write(&buf, tt); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		if !out.Shape().Equal(tt.Shape()) {
			return false
		}
		a, b := tt.F64(), out.F64()
		for i := range a {
			// Bit-exact, including NaN.
			x, y := a[i], b[i]
			if x != y && !(x != x && y != y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseHeaderVariants(t *testing.T) {
	// Header as NumPy itself writes it (single quotes, trailing comma).
	descr, fortran, shape, err := parseHeader("{'descr': '<f8', 'fortran_order': False, 'shape': (3, 4), }        \n")
	if err != nil {
		t.Fatal(err)
	}
	if descr != "<f8" || fortran || !shape.Equal(tensor.Shape{3, 4}) {
		t.Fatalf("parsed %q %v %v", descr, fortran, shape)
	}
	// Scalar shape.
	_, _, shape, err = parseHeader("{'descr': '<f4', 'fortran_order': False, 'shape': (), }\n")
	if err != nil || len(shape) != 0 {
		t.Fatalf("scalar shape: %v %v", shape, err)
	}
	// Fortran order rejected at Read level but parsed here.
	_, fortran, _, err = parseHeader("{'descr': '<f4', 'fortran_order': True, 'shape': (2,), }\n")
	if err != nil || !fortran {
		t.Fatal("fortran flag lost")
	}
}

// rawNpy assembles a file around an arbitrary header: version major.0, the
// header length field sized for that version, then payload.
func rawNpy(major byte, header string, payload []byte) []byte {
	b := append([]byte("\x93NUMPY"), major, 0)
	if major == 1 {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(header)))
	} else {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(header)))
	}
	return append(append(b, header...), payload...)
}

// TestReadRejectsOversizedHeader: a header is untrusted, and a hundred
// bytes declaring a terabyte (or an element count whose byte size
// overflows) must be refused before anything is allocated, from memory
// and from a file alike.
func TestReadRejectsOversizedHeader(t *testing.T) {
	dir := t.TempDir()
	for i, shape := range []string{"(1099511627776,)", "(4611686018427387904, 4)", "(3037000500, 3037000500)"} {
		file := rawNpy(1, "{'descr': '<f8', 'fortran_order': False, 'shape': "+shape+", }\n", make([]byte, 64))
		if _, err := Read(bytes.NewReader(file)); err == nil {
			t.Fatalf("Read accepted shape %s", shape)
		}
		path := filepath.Join(dir, fmt.Sprintf("huge%d.npy", i))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("Load accepted shape %s", shape)
		}
	}
	// A version 2.0 header length field can claim 4 GiB of header.
	if _, err := Read(bytes.NewReader(rawNpy(2, "", nil)[:8])); err == nil {
		t.Fatal("truncated length field accepted")
	}
	huge := append(rawNpy(2, "", nil)[:8], 0xff, 0xff, 0xff, 0xff)
	if _, err := Read(bytes.NewReader(huge)); err == nil {
		t.Fatal("4 GiB header length accepted")
	}
}

// FuzzNpyRead feeds Read arbitrary bytes: it must never panic or allocate
// more than the input can back, and a tensor it accepts must survive
// Write → Read unchanged, its payload bytes exactly those it was read from.
func FuzzNpyRead(f *testing.F) {
	for _, in := range []*tensor.Tensor{
		tensor.FromF32(tensor.Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6}),
		tensor.FromF64(tensor.Shape{4}, []float64{1.5, -2.5, 0, 1e300}),
		tensor.FromI64(tensor.Shape{3}, []int64{-1, 0, 1 << 40}),
		tensor.FromC128(tensor.Shape{2}, []complex128{1 + 2i, -3 - 4i}),
		tensor.ScalarF64(42),
		tensor.New(tensor.Float32, 0, 5),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated payload
		f.Add(b[:12])       // truncated header
	}
	f.Add(rawNpy(1, "{'descr': '<c16', 'fortran_order': False, 'shape': (1099511627776,), }\n", nil))
	f.Add(rawNpy(3, "{'descr': '<i8', 'fortran_order': False, 'shape': (2,), }\n", make([]byte, 16)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := Write(&once, got); err != nil {
			t.Fatalf("accepted tensor %v %v does not write: %v", got.DType(), got.Shape(), err)
		}
		again, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("written tensor does not read back: %v", err)
		}
		var twice bytes.Buffer
		if err := Write(&twice, again); err != nil {
			t.Fatal(err)
		}
		if again.DType() != got.DType() || !again.Shape().Equal(got.Shape()) || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip changed %v %v", got.DType(), got.Shape())
		}
		// The payload sits right after the header: 10 bytes of magic,
		// version and length for 1.0, 12 for 2.0 and 3.0.
		start := 10 + int(binary.LittleEndian.Uint16(data[8:]))
		if data[6] != 1 {
			start = 12 + int(binary.LittleEndian.Uint32(data[8:]))
		}
		n := int(got.ByteSize())
		if written := once.Bytes()[once.Len()-n:]; !bytes.Equal(data[start:start+n], written) {
			t.Fatalf("payload changed in the round trip")
		}
	})
}
