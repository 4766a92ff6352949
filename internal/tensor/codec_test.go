package tensor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

var allDTypes = []DType{Float32, Float64, Complex64, Complex128, Int32, Int64, Bool}

// goldenShapes are the shapes TestEncodeGolden encodes for every dtype:
// rank 0, 1 and 3, and two empty tensors.
var goldenShapes = []Shape{nil, {13}, {2, 3, 4}, {0}, {3, 0}}

// goldenValue is element i of a golden tensor: signs, magnitudes, −0, ±Inf
// and NaN.
func goldenValue(i int) float64 {
	switch i {
	case 1:
		return math.Copysign(0, -1)
	case 4:
		return math.Inf(1)
	case 7:
		return math.Inf(-1)
	case 10:
		return math.NaN()
	}
	return float64(i*i-50) * math.Pow(10, float64(i%9-4)) / 7
}

// goldenTensor fills a tensor of dt and shape with goldenValue (integers:
// both signs and the extremes; bools: an irregular pattern).
func goldenTensor(dt DType, shape Shape) *Tensor {
	t := New(dt, shape...)
	for i := 0; i < t.NumElements(); i++ {
		v := goldenValue(i)
		switch dt {
		case Float32:
			t.F32()[i] = float32(v)
		case Float64:
			t.F64()[i] = v
		case Complex64:
			t.C64()[i] = complex(float32(v), float32(-goldenValue(i+5)))
		case Complex128:
			t.C128()[i] = complex(v, -goldenValue(i+5))
		case Int32:
			t.I32()[i] = int32(i*i-50) * 40_009
			if i == 1 {
				t.I32()[i] = math.MinInt32
			}
		case Int64:
			t.I64()[i] = int64(i*i-50) * 1_000_003
			if i == 1 {
				t.I64()[i] = math.MinInt64
			} else if i == 2 {
				t.I64()[i] = math.MaxInt64
			}
		case Bool:
			t.Bools()[i] = i%3 == 0 || i == 7
		}
	}
	return t
}

// goldenEncoding is the concatenated encoding of dt's golden tensors.
func goldenEncoding(t *testing.T, dt DType) []byte {
	var b []byte
	for _, s := range goldenShapes {
		var err error
		if b, err = goldenTensor(dt, s).Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestEncodeGolden pins the bytes Encode produces for every dtype: the
// sha256 of its golden tensors' encodings, as the element-by-element
// encoder wrote them.
func TestEncodeGolden(t *testing.T) {
	want := map[DType]string{
		Float32:    "7b924865e24e6ba9b6ed604efb495c64f3bd6266b6783aba6fed15d771070b0a",
		Float64:    "053e8ce1d2c70b6336f4e3fbe5fe705087776f2495a50ee3d82395d8d99d9ba9",
		Complex64:  "194e188304b8081c8fc9c24edd2b87620786523598b5e59e2fb6922f1d51ecce",
		Complex128: "06915d861c17efe4afd2a1dfbf935f962f314c7be4ab62d04a66e4b603bed272",
		Int32:      "6dd55ba6180b33b271d8dc972fa35b8e82e7046c7f72f846e54e4a938ad387fe",
		Int64:      "393e1d1d4bd9464dece6b9df1ab3591daaf2e8a2bc74839b8a6ca7def2413ad9",
		Bool:       "f479419b692570310a584b329e29d420588a7bd94065a2021e29d4d90433ac1b",
	}
	for _, dt := range allDTypes {
		sum := sha256.Sum256(goldenEncoding(t, dt))
		if got := hex.EncodeToString(sum[:]); got != want[dt] {
			t.Errorf("%v: sha256 %s, want %s", dt, got, want[dt])
		}
	}
}

// TestEncodeBigEndian runs the codec as a big-endian host would: with the
// endianness flag forced, Encode must write every number's bytes reversed
// from the little-endian encoding (each 4- or 8-byte half of a complex
// element on its own), and Decode under the same flag must give back the
// storage bytes.
func TestEncodeBigEndian(t *testing.T) {
	defer func(saved bool) { bigEndian = saved }(bigEndian)
	for _, dt := range allDTypes {
		word := dt.Size()
		if dt.IsComplex() {
			word /= 2
		}
		for _, s := range goldenShapes {
			orig := goldenTensor(dt, s)
			bigEndian = false
			le, err := orig.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			bigEndian = true
			be, err := orig.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			hdr := len(le) - int(orig.ByteSize())
			want := bytes.Clone(le)
			swapWords(want[hdr:], word)
			if !bytes.Equal(be, want) {
				t.Fatalf("%v%v: big-endian encoding %x, want %x", dt, s, be, want)
			}
			got, rest, err := Decode(be)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%v%v: decode: %v, %d bytes left", dt, s, err, len(rest))
			}
			if !bytes.Equal(got.Bytes(), orig.Bytes()) || !got.Shape().Equal(orig.Shape()) {
				t.Fatalf("%v%v: big-endian round trip changed the tensor", dt, s)
			}
		}
	}
}

func TestSwapWords(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	swapWords(b, 4)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9, 16, 15, 14, 13}; !bytes.Equal(b, want) {
		t.Fatalf("4-byte words: %v, want %v", b, want)
	}
	swapWords(b, 4)
	swapWords(b, 8)
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 16, 15, 14, 13, 12, 11, 10, 9}; !bytes.Equal(b, want) {
		t.Fatalf("8-byte words: %v, want %v", b, want)
	}
	// Swapping each float64 word of little-endian bytes gives the
	// big-endian encoding of the same values.
	v := []float64{1.5, -0.25}
	le := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v[0])), math.Float64bits(v[1]))
	swapWords(le, 8)
	be := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, math.Float64bits(v[0])), math.Float64bits(v[1]))
	if !bytes.Equal(le, be) {
		t.Fatalf("swapped little-endian %x, big-endian %x", le, be)
	}
}

// TestDecodeRejectsNonCanonical: padded varints and bool bytes other than
// 0 and 1 are refused, by Decode and DecodePooled alike.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for name, b := range map[string][]byte{
		"padded rank":       {byte(Float64), 0x80, 0x00},
		"padded dim":        {byte(Bool), 1, 0x81, 0x00, 1},
		"padded rank-2 dim": {byte(Bool), 2, 1, 0x81, 0x00, 1},
		"bool byte 2":       {byte(Bool), 1, 2, 0, 2},
		"bool byte 0xff":    {byte(Bool), 0, 0xff},
	} {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted %x", name, b)
		}
		if _, _, err := DecodePooled(b); err == nil {
			t.Errorf("%s: DecodePooled accepted %x", name, b)
		}
	}
}

// codecBenchTensor is an f64 vector of the given payload size.
func codecBenchTensor(size int) *Tensor {
	t := New(Float64, size/8)
	for i := range t.F64() {
		t.F64()[i] = goldenValue(i % 64)
	}
	return t
}

// BenchmarkEncode prices Encode of an f64 vector at the allreduce
// workload's two chunk sizes: 1 KiB (latency) and 2 MiB (bandwidth).
func BenchmarkEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"1KiB", 1 << 10}, {"2MiB", 2 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			t := codecBenchTensor(c.size)
			dst := make([]byte, 0, t.EncodedSize())
			b.SetBytes(t.ByteSize())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = t.Encode(dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode prices DecodePooled, the transport's decoder, of the same
// two f64 vectors; its outputs are recycled as the relay paths do.
func BenchmarkDecode(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"1KiB", 1 << 10}, {"2MiB", 2 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			src, err := codecBenchTensor(c.size).Encode(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(c.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, _, err := DecodePooled(src)
				if err != nil {
					b.Fatal(err)
				}
				Recycle(t)
			}
		})
	}
}
