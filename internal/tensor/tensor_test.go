package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{nil, 1},
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{3, 4}, 12},
		{Shape{2, 3, 4}, 24},
		{Shape{0, 7}, 0},
	}
	for _, c := range cases {
		if got := c.shape.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{2, 3}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone not equal: %v vs %v", s, c)
	}
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if s.Equal(Shape{2}) || s.Equal(Shape{2, 4}) {
		t.Fatal("Equal false positives")
	}
}

func TestShapeOffset(t *testing.T) {
	s := Shape{2, 3, 4}
	if got := s.Offset(0, 0, 0); got != 0 {
		t.Errorf("offset(0,0,0)=%d", got)
	}
	if got := s.Offset(1, 2, 3); got != 23 {
		t.Errorf("offset(1,2,3)=%d, want 23", got)
	}
	if got := s.Offset(0, 1, 2); got != 6 {
		t.Errorf("offset(0,1,2)=%d, want 6", got)
	}
}

func TestShapeOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	Shape{2, 2}.Offset(2, 0)
}

func TestDTypeSizes(t *testing.T) {
	want := map[DType]int{
		Float32: 4, Float64: 8, Complex64: 8, Complex128: 16,
		Int32: 4, Int64: 8, Bool: 1, Invalid: 0,
	}
	for dt, sz := range want {
		if got := dt.Size(); got != sz {
			t.Errorf("%v.Size() = %d, want %d", dt, got, sz)
		}
	}
}

func TestNewZeroFilled(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Complex64, Complex128, Int32, Int64, Bool} {
		tt := New(dt, 3, 2)
		if tt.NumElements() != 6 {
			t.Fatalf("%v: wrong elem count", dt)
		}
		if tt.DType() != dt {
			t.Fatalf("%v: wrong dtype", dt)
		}
	}
	z := New(Float64, 4)
	for _, v := range z.F64() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromWrappers(t *testing.T) {
	f := FromF32(Shape{2, 2}, []float32{1, 2, 3, 4})
	if f.F32()[3] != 4 {
		t.Fatal("FromF32 data mismatch")
	}
	d := FromF64(Shape{3}, []float64{1, 2, 3})
	if d.ByteSize() != 24 {
		t.Fatalf("ByteSize = %d", d.ByteSize())
	}
	c := FromC128(Shape{1}, []complex128{2 + 3i})
	if c.C128()[0] != 2+3i {
		t.Fatal("FromC128 mismatch")
	}
	i := FromI64(Shape{2}, []int64{7, 8})
	if i.I64()[1] != 8 {
		t.Fatal("FromI64 mismatch")
	}
	b := FromBool(Shape{2}, []bool{true, false})
	if !b.Bools()[0] || b.Bools()[1] {
		t.Fatal("FromBool mismatch")
	}
}

func TestFromPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromF32(Shape{3}, []float32{1, 2})
}

func TestScalars(t *testing.T) {
	if ScalarF64(2.5).ScalarFloat() != 2.5 {
		t.Fatal("ScalarF64 round trip")
	}
	if ScalarF32(1.5).ScalarFloat() != 1.5 {
		t.Fatal("ScalarF32 round trip")
	}
	if ScalarI64(42).ScalarInt() != 42 {
		t.Fatal("ScalarI64 round trip")
	}
	if ScalarC128(1 + 2i).C128()[0] != 1+2i {
		t.Fatal("ScalarC128 round trip")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromF64(Shape{2}, []float64{1, 2})
	b := a.Clone()
	b.F64()[0] = 99
	if a.F64()[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestReshape(t *testing.T) {
	a := FromF32(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("shape %v", b.Shape())
	}
	// Storage shared.
	b.F32()[0] = 42
	if a.F32()[0] != 42 {
		t.Fatal("reshape should share storage")
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Fatal("expected error for bad reshape")
	}
}

func TestEqualAndApprox(t *testing.T) {
	a := FromF64(Shape{3}, []float64{1, 2, 3})
	b := FromF64(Shape{3}, []float64{1, 2, 3.0000001})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.ApproxEqual(b, 1e-5) {
		t.Fatal("ApproxEqual should tolerate 1e-7 relative error")
	}
	if a.ApproxEqual(b, 1e-12) {
		t.Fatal("ApproxEqual with tight tol should fail")
	}
	c := FromC128(Shape{1}, []complex128{1 + 1i})
	d := FromC128(Shape{1}, []complex128{1 + 1.0000001i})
	if !c.ApproxEqual(d, 1e-5) {
		t.Fatal("complex ApproxEqual")
	}
}

func TestStringSummary(t *testing.T) {
	a := New(Float32, 100)
	s := a.String()
	if len(s) == 0 || len(s) > 200 {
		t.Fatalf("String() length unreasonable: %q", s)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical stream")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(42)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestRandomUniformAllTypes(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Complex64, Complex128, Int32, Int64, Bool} {
		tt := RandomUniform(dt, 5, 4, 4)
		if tt.NumElements() != 16 {
			t.Fatalf("%v wrong count", dt)
		}
	}
	a := RandomUniform(Float64, 11, 8)
	b := RandomUniform(Float64, 11, 8)
	if !a.Equal(b) {
		t.Fatal("RandomUniform must be deterministic per seed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tensors := []*Tensor{
		ScalarF64(3.14),
		FromF32(Shape{2, 3}, []float32{1, -2, 3, -4, 5, -6}),
		FromF64(Shape{4}, []float64{math.Pi, math.Inf(1), -0.0, 1e-300}),
		FromC128(Shape{2}, []complex128{1 + 2i, -3 - 4i}),
		FromI64(Shape{3}, []int64{-1, 0, math.MaxInt64}),
		FromI32(Shape{2}, []int32{-7, 7}),
		FromBool(Shape{3}, []bool{true, false, true}),
		RandomUniform(Complex64, 3, 5),
		New(Float32, 0), // empty tensor
	}
	for _, orig := range tensors {
		buf, err := orig.Encode(nil)
		if err != nil {
			t.Fatalf("encode %v: %v", orig, err)
		}
		if int64(len(buf)) != orig.EncodedSize() {
			t.Fatalf("EncodedSize %d != actual %d", orig.EncodedSize(), len(buf))
		}
		got, rest, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("leftover bytes: %d", len(rest))
		}
		if !orig.Equal(got) {
			t.Fatalf("round trip mismatch: %v vs %v", orig, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("empty input should error")
	}
	if _, _, err := Decode([]byte{200}); err == nil {
		t.Fatal("bad dtype should error")
	}
	good, _ := FromF64(Shape{4}, []float64{1, 2, 3, 4}).Encode(nil)
	if _, _, err := Decode(good[:len(good)-3]); err == nil {
		t.Fatal("truncated payload should error")
	}
	// A rank-2 header whose dimension overflows int used to reach make()
	// with a negative length and panic.
	huge := binary.AppendUvarint([]byte{good[0], 2}, math.MaxUint64)
	huge = binary.AppendUvarint(huge, 2)
	if _, _, err := Decode(huge); err == nil {
		t.Fatal("overflowing dimension should error")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(vals []float64, seed uint64) bool {
		tt := FromF64(Shape{len(vals)}, vals)
		buf, err := tt.Encode(nil)
		if err != nil {
			return false
		}
		got, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		// NaN != NaN under Equal, so compare bit patterns.
		a, b := tt.F64(), got.F64()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatDecodeStream(t *testing.T) {
	a := FromF32(Shape{2}, []float32{1, 2})
	b := FromI64(Shape{1}, []int64{9})
	buf, _ := a.Encode(nil)
	buf, _ = b.Encode(buf)
	gotA, rest, err := Decode(buf)
	if err != nil || !gotA.Equal(a) {
		t.Fatalf("first decode: %v", err)
	}
	gotB, rest, err := Decode(rest)
	if err != nil || !gotB.Equal(b) || len(rest) != 0 {
		t.Fatalf("second decode: %v", err)
	}
}
