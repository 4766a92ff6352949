package npy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tfhpc/internal/tensor"
)

// goldenTensor is a fixed 3×13 tensor of dt whose values cover signs,
// magnitudes, −0, ±Inf and NaN (integers: both signs and the extremes).
func goldenTensor(dt tensor.DType) *tensor.Tensor {
	t := tensor.New(dt, 3, 13)
	f := func(i int) float64 {
		switch i {
		case 5:
			return math.Copysign(0, -1)
		case 11:
			return math.Inf(1)
		case 17:
			return math.Inf(-1)
		case 23:
			return math.NaN()
		}
		return float64(i*i-200) * math.Pow(10, float64(i%9-4)) / 7
	}
	for i := 0; i < t.NumElements(); i++ {
		switch dt {
		case tensor.Float32:
			t.F32()[i] = float32(f(i))
		case tensor.Float64:
			t.F64()[i] = f(i)
		case tensor.Int64:
			t.I64()[i] = int64(i*i-200) * 1_000_003
			if i == 0 {
				t.I64()[i] = math.MinInt64
			} else if i == 1 {
				t.I64()[i] = math.MaxInt64
			}
		case tensor.Complex128:
			t.C128()[i] = complex(f(i), -f(38-i))
		}
	}
	return t
}

// TestWriteGolden pins the bytes Write produces for each dtype: sha256 of
// the whole file, header included, as the element-by-element encoder wrote
// them.
func TestWriteGolden(t *testing.T) {
	want := map[tensor.DType]string{
		tensor.Float32:    "3347ee5444e499f68be112fca217fd6dd450dca98a9edffc16bec533944fb92a",
		tensor.Float64:    "eb4db359ab27d01710b9934f01f46f69bfb2e29ba425a7cbd77e02eab0dac1c8",
		tensor.Int64:      "18c2495c5586c04bd714d319ba63c275eb1ba93d0e0b0ed0c31339715b0ddc4d",
		tensor.Complex128: "1859e4cc1d3e7625baaa83d0ef40eddc946899c21cdf3c33df9babb40bccbe98",
	}
	for dt, h := range want {
		var buf bytes.Buffer
		if err := Write(&buf, goldenTensor(dt)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != h {
			t.Errorf("%v: sha256 %s, want %s", dt, got, h)
		}
	}
}

// decodeElements is the element-by-element little-endian decoder Read used
// before it read payloads straight into the tensor: the reference Read
// must agree with.
func decodeElements(dt tensor.DType, b []byte, n int) *tensor.Tensor {
	t := tensor.New(dt, n)
	le := binary.LittleEndian
	for i := 0; i < n; i++ {
		switch dt {
		case tensor.Float32:
			t.F32()[i] = math.Float32frombits(le.Uint32(b[i*4:]))
		case tensor.Float64:
			t.F64()[i] = math.Float64frombits(le.Uint64(b[i*8:]))
		case tensor.Int64:
			t.I64()[i] = int64(le.Uint64(b[i*8:]))
		case tensor.Complex128:
			t.C128()[i] = complex(math.Float64frombits(le.Uint64(b[i*16:])), math.Float64frombits(le.Uint64(b[i*16+8:])))
		}
	}
	return t
}

// TestReadMatchesElementDecoder reads arbitrary payload bytes, NaN
// payloads included, and compares every element's bits with the
// element-by-element decoder's.
func TestReadMatchesElementDecoder(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64, tensor.Int64, tensor.Complex128} {
		for _, n := range []int{0, 1, 7, 4099} {
			raw := make([]byte, n*dt.Size())
			s := uint64(n) + 1
			for i := range raw {
				s = s*6364136223846793005 + 1442695040888963407
				raw[i] = byte(s >> 56)
			}
			hdr, err := Header(dt, tensor.Shape{n})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Read(bytes.NewReader(append(hdr, raw...)))
			if err != nil {
				t.Fatalf("%v n=%d: %v", dt, n, err)
			}
			want := decodeElements(dt, raw, n)
			for i := 0; i < n; i++ {
				if a, b := elemBits(got, i), elemBits(want, i); a != b {
					t.Fatalf("%v n=%d: element %d bits %#x, element decoder %#x", dt, n, i, a, b)
				}
			}
		}
	}
}

// elemBits returns the bits of t's element i (both parts of a complex one).
func elemBits(t *tensor.Tensor, i int) [2]uint64 {
	switch t.DType() {
	case tensor.Float32:
		return [2]uint64{uint64(math.Float32bits(t.F32()[i]))}
	case tensor.Float64:
		return [2]uint64{math.Float64bits(t.F64()[i])}
	case tensor.Int64:
		return [2]uint64{uint64(t.I64()[i])}
	case tensor.Complex128:
		v := t.C128()[i]
		return [2]uint64{math.Float64bits(real(v)), math.Float64bits(imag(v))}
	}
	panic("unsupported dtype")
}

// opaqueReader hides the size of its reader, so Read cannot reject a short
// payload up front and must find it while reading.
type opaqueReader struct{ r io.Reader }

func (o opaqueReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestReadShortPayload(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float32, tensor.Complex128} {
		var buf bytes.Buffer
		if err := Write(&buf, goldenTensor(dt)); err != nil {
			t.Fatal(err)
		}
		short := buf.Bytes()[:buf.Len()-1]
		_, err := Read(opaqueReader{bytes.NewReader(short)})
		if err == nil || !strings.Contains(err.Error(), "npy: short payload") || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%v: one byte short: err %v, want npy: short payload (unexpected EOF)", dt, err)
		}
		if _, err := Read(bytes.NewReader(short)); err == nil {
			t.Fatalf("%v: one byte short from a sized reader: no error", dt)
		}
	}
}

// BenchmarkLoad reads one 8 MiB c128 tile file (2^19 elements), the size
// of an fft workload tile, and reports the bytes read per second.
func BenchmarkLoad(b *testing.B) {
	tile := tensor.New(tensor.Complex128, 1<<19)
	for i := range tile.C128() {
		tile.C128()[i] = complex(float64(i), -float64(i))
	}
	path := filepath.Join(b.TempDir(), "tile.npy")
	if err := Save(path, tile); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(tile.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
