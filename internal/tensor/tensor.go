// Package tensor implements dense n-rank tensors, the fundamental value type
// that flows along graph edges in the runtime. A tensor has a data type
// (DType), a shape, and a flat row-major backing slice. Mirrors the semantics
// of TensorFlow tensors: immutable by convention (kernels allocate outputs),
// with tf.Variable mutability layered on top in internal/vars.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// DType enumerates the element types supported by the runtime.
type DType int

const (
	Invalid DType = iota
	Float32
	Float64
	Complex64
	Complex128
	Int32
	Int64
	Bool
)

var dtypeNames = map[DType]string{
	Invalid:    "invalid",
	Float32:    "float32",
	Float64:    "float64",
	Complex64:  "complex64",
	Complex128: "complex128",
	Int32:      "int32",
	Int64:      "int64",
	Bool:       "bool",
}

func (d DType) String() string {
	if s, ok := dtypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Size returns the number of bytes used by one element of the type.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	case Float64, Int64, Complex64:
		return 8
	case Complex128:
		return 16
	case Bool:
		return 1
	}
	return 0
}

// IsFloat reports whether d is a real floating point type.
func (d DType) IsFloat() bool { return d == Float32 || d == Float64 }

// IsComplex reports whether d is a complex type.
func (d DType) IsComplex() bool { return d == Complex64 || d == Complex128 }

// Shape describes the extent of each tensor dimension. A nil or empty shape
// is a scalar (rank 0).
type Shape []int

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// NumElements returns the total element count, 1 for scalars.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	if s == nil {
		return nil
	}
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Valid reports whether every dimension is non-negative.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d < 0 {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Offset computes the row-major flat offset of the given multi-index.
func (s Shape) Offset(idx ...int) int {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape rank %d", len(idx), len(s)))
	}
	off := 0
	for i, d := range s {
		if idx[i] < 0 || idx[i] >= d {
			panic(fmt.Sprintf("tensor: index %d out of bounds for dim %d of size %d", idx[i], i, d))
		}
		off = off*d + idx[i]
	}
	return off
}

// Tensor is a dense, row-major n-dimensional array.
type Tensor struct {
	dtype DType
	shape Shape
	data  any // one of []float32, []float64, []complex64, []complex128, []int32, []int64, []bool
}

// New allocates a zero-filled tensor of the given type and shape.
func New(dt DType, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	n := s.NumElements()
	t := &Tensor{dtype: dt, shape: s}
	switch dt {
	case Float32:
		t.data = make([]float32, n)
	case Float64:
		t.data = make([]float64, n)
	case Complex64:
		t.data = make([]complex64, n)
	case Complex128:
		t.data = make([]complex128, n)
	case Int32:
		t.data = make([]int32, n)
	case Int64:
		t.data = make([]int64, n)
	case Bool:
		t.data = make([]bool, n)
	default:
		panic(fmt.Sprintf("tensor: cannot allocate dtype %v", dt))
	}
	return t
}

// FromF32 wraps vals (not copied) as a tensor with the given shape.
func FromF32(shape Shape, vals []float32) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Float32, shape: shape.Clone(), data: vals}
}

// FromF64 wraps vals (not copied) as a tensor with the given shape.
func FromF64(shape Shape, vals []float64) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Float64, shape: shape.Clone(), data: vals}
}

// FromC64 wraps vals (not copied) as a tensor with the given shape.
func FromC64(shape Shape, vals []complex64) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Complex64, shape: shape.Clone(), data: vals}
}

// FromC128 wraps vals (not copied) as a tensor with the given shape.
func FromC128(shape Shape, vals []complex128) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Complex128, shape: shape.Clone(), data: vals}
}

// FromI64 wraps vals (not copied) as a tensor with the given shape.
func FromI64(shape Shape, vals []int64) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Int64, shape: shape.Clone(), data: vals}
}

// FromI32 wraps vals (not copied) as a tensor with the given shape.
func FromI32(shape Shape, vals []int32) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Int32, shape: shape.Clone(), data: vals}
}

// FromBool wraps vals (not copied) as a tensor with the given shape.
func FromBool(shape Shape, vals []bool) *Tensor {
	checkLen(shape, len(vals))
	return &Tensor{dtype: Bool, shape: shape.Clone(), data: vals}
}

func checkLen(shape Shape, n int) {
	if shape.NumElements() != n {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, shape.NumElements(), n))
	}
}

// ScalarF32 returns a rank-0 float32 tensor.
func ScalarF32(v float32) *Tensor { return FromF32(nil, []float32{v}) }

// ScalarF64 returns a rank-0 float64 tensor.
func ScalarF64(v float64) *Tensor { return FromF64(nil, []float64{v}) }

// ScalarI64 returns a rank-0 int64 tensor.
func ScalarI64(v int64) *Tensor { return FromI64(nil, []int64{v}) }

// ScalarC128 returns a rank-0 complex128 tensor.
func ScalarC128(v complex128) *Tensor { return FromC128(nil, []complex128{v}) }

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return t.shape.Rank() }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return t.shape.NumElements() }

// ByteSize returns the size of the payload in bytes.
func (t *Tensor) ByteSize() int64 { return int64(t.NumElements()) * int64(t.dtype.Size()) }

// F32 returns the backing slice; panics if the dtype is not float32.
func (t *Tensor) F32() []float32 { return t.data.([]float32) }

// F64 returns the backing slice; panics if the dtype is not float64.
func (t *Tensor) F64() []float64 { return t.data.([]float64) }

// C64 returns the backing slice; panics if the dtype is not complex64.
func (t *Tensor) C64() []complex64 { return t.data.([]complex64) }

// C128 returns the backing slice; panics if the dtype is not complex128.
func (t *Tensor) C128() []complex128 { return t.data.([]complex128) }

// I32 returns the backing slice; panics if the dtype is not int32.
func (t *Tensor) I32() []int32 { return t.data.([]int32) }

// I64 returns the backing slice; panics if the dtype is not int64.
func (t *Tensor) I64() []int64 { return t.data.([]int64) }

// Bools returns the backing slice; panics if the dtype is not bool.
func (t *Tensor) Bools() []bool { return t.data.([]bool) }

// ScalarFloat returns the single element of a rank-0 (or one-element) real
// tensor as float64.
func (t *Tensor) ScalarFloat() float64 {
	if t.NumElements() != 1 {
		panic(fmt.Sprintf("tensor: ScalarFloat on tensor with %d elements", t.NumElements()))
	}
	switch t.dtype {
	case Float32:
		return float64(t.F32()[0])
	case Float64:
		return t.F64()[0]
	case Int32:
		return float64(t.I32()[0])
	case Int64:
		return float64(t.I64()[0])
	}
	panic(fmt.Sprintf("tensor: ScalarFloat on dtype %v", t.dtype))
}

// ScalarInt returns the single element of a one-element integer tensor.
func (t *Tensor) ScalarInt() int64 {
	if t.NumElements() != 1 {
		panic(fmt.Sprintf("tensor: ScalarInt on tensor with %d elements", t.NumElements()))
	}
	switch t.dtype {
	case Int32:
		return int64(t.I32()[0])
	case Int64:
		return t.I64()[0]
	}
	panic(fmt.Sprintf("tensor: ScalarInt on dtype %v", t.dtype))
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dtype, t.shape...)
	c.CopyFrom(t) // same dtype and size: cannot fail
	return c
}

// CopyFrom overwrites t's elements with src's, in row-major order; the
// dtypes and element counts must match (the shapes need not).
func (t *Tensor) CopyFrom(src *Tensor) error {
	if src.dtype != t.dtype || src.NumElements() != t.NumElements() {
		return fmt.Errorf("tensor: cannot copy %v%v into %v%v", src.dtype, src.shape, t.dtype, t.shape)
	}
	copy(t.Bytes(), src.Bytes())
	return nil
}

// Flat returns a rank-1 view of elements [lo, hi) of t's row-major storage;
// writes through it change t.
func (t *Tensor) Flat(lo, hi int) *Tensor {
	// One allocation holds the view and its one-dim shape: views are made
	// per chunk on the collectives' relay paths.
	vs := &struct {
		Tensor
		dim [1]int
	}{dim: [1]int{hi - lo}}
	v := &vs.Tensor
	v.dtype, v.shape = t.dtype, vs.dim[:]
	switch d := t.data.(type) {
	case []float32:
		v.data = d[lo:hi]
	case []float64:
		v.data = d[lo:hi]
	case []complex64:
		v.data = d[lo:hi]
	case []complex128:
		v.data = d[lo:hi]
	case []int32:
		v.data = d[lo:hi]
	case []int64:
		v.data = d[lo:hi]
	case []bool:
		v.data = d[lo:hi]
	}
	return v
}

// Reshape returns a view of the tensor with a new shape; the element count
// must be unchanged. The backing storage is shared.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s := Shape(shape)
	if !s.Valid() {
		return nil, fmt.Errorf("tensor: invalid shape %v", s)
	}
	if s.NumElements() != t.NumElements() {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, t.NumElements(), s, s.NumElements())
	}
	return &Tensor{dtype: t.dtype, shape: s.Clone(), data: t.data}, nil
}

// Equal reports exact equality of dtype, shape and every element.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.dtype != o.dtype || !t.shape.Equal(o.shape) {
		return false
	}
	switch t.dtype {
	case Float32:
		a, b := t.F32(), o.F32()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Float64:
		a, b := t.F64(), o.F64()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Complex64:
		a, b := t.C64(), o.C64()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Complex128:
		a, b := t.C128(), o.C128()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Int32:
		a, b := t.I32(), o.I32()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Int64:
		a, b := t.I64(), o.I64()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	case Bool:
		a, b := t.Bools(), o.Bools()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// ApproxEqual reports whether two real/complex tensors agree element-wise
// within absolute-or-relative tolerance tol.
func (t *Tensor) ApproxEqual(o *Tensor, tol float64) bool {
	if t.dtype != o.dtype || !t.shape.Equal(o.shape) {
		return false
	}
	close := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
	}
	switch t.dtype {
	case Float32:
		a, b := t.F32(), o.F32()
		for i := range a {
			if !close(float64(a[i]), float64(b[i])) {
				return false
			}
		}
		return true
	case Float64:
		a, b := t.F64(), o.F64()
		for i := range a {
			if !close(a[i], b[i]) {
				return false
			}
		}
		return true
	case Complex128:
		a, b := t.C128(), o.C128()
		for i := range a {
			if !close(real(a[i]), real(b[i])) || !close(imag(a[i]), imag(b[i])) {
				return false
			}
		}
		return true
	case Complex64:
		a, b := t.C64(), o.C64()
		for i := range a {
			if !close(float64(real(a[i])), float64(real(b[i]))) ||
				!close(float64(imag(a[i])), float64(imag(b[i]))) {
				return false
			}
		}
		return true
	}
	return t.Equal(o)
}

// String renders a short human-readable summary (dtype, shape, a few leading
// values), never the full payload.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor<%v %v>", t.dtype, t.shape)
	n := t.NumElements()
	show := n
	if show > 8 {
		show = 8
	}
	sb.WriteString("{")
	for i := 0; i < show; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		switch t.dtype {
		case Float32:
			fmt.Fprintf(&sb, "%g", t.F32()[i])
		case Float64:
			fmt.Fprintf(&sb, "%g", t.F64()[i])
		case Complex64:
			fmt.Fprintf(&sb, "%v", t.C64()[i])
		case Complex128:
			fmt.Fprintf(&sb, "%v", t.C128()[i])
		case Int32:
			fmt.Fprintf(&sb, "%d", t.I32()[i])
		case Int64:
			fmt.Fprintf(&sb, "%d", t.I64()[i])
		case Bool:
			fmt.Fprintf(&sb, "%t", t.Bools()[i])
		}
	}
	if show < n {
		fmt.Fprintf(&sb, " ... (%d total)", n)
	}
	sb.WriteString("}")
	return sb.String()
}
