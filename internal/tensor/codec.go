package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary tensor encoding used on the wire and in checkpoints:
//
//	u8   dtype
//	uvarint rank
//	uvarint dims[rank]
//	raw little-endian payload
//
// It is the moral equivalent of TensorFlow's TensorProto: self-describing,
// platform independent, and bounded by the same 2 GiB limit the paper
// discusses for serialized graphs.

// MaxEncodedBytes is the 2 GiB serialization ceiling, mirroring the ProtoBuf
// limitation that the paper calls out for graph and tensor messages.
const MaxEncodedBytes = int64(2) << 30

// ErrTooLarge is returned when a tensor exceeds MaxEncodedBytes serialized.
var ErrTooLarge = fmt.Errorf("tensor: encoded size exceeds 2 GiB ProtoBuf-style limit")

// EncodedSize returns the exact number of bytes Encode will produce.
func (t *Tensor) EncodedSize() int64 {
	n := int64(1) // dtype byte
	var tmp [binary.MaxVarintLen64]byte
	n += int64(binary.PutUvarint(tmp[:], uint64(t.Rank())))
	for _, d := range t.shape {
		n += int64(binary.PutUvarint(tmp[:], uint64(d)))
	}
	return n + t.ByteSize()
}

// Encode appends the binary form of t to dst and returns the result.
func (t *Tensor) Encode(dst []byte) ([]byte, error) {
	if t.EncodedSize() > MaxEncodedBytes {
		return dst, ErrTooLarge
	}
	dst = append(dst, byte(t.dtype))
	dst = binary.AppendUvarint(dst, uint64(t.Rank()))
	for _, d := range t.shape {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	switch t.dtype {
	case Float32:
		for _, v := range t.F32() {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case Float64:
		for _, v := range t.F64() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case Complex64:
		for _, v := range t.C64() {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(real(v)))
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(imag(v)))
		}
	case Complex128:
		for _, v := range t.C128() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(v)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(v)))
		}
	case Int32:
		for _, v := range t.I32() {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case Int64:
		for _, v := range t.I64() {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case Bool:
		for _, v := range t.Bools() {
			if v {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	default:
		return dst, fmt.Errorf("tensor: cannot encode dtype %v", t.dtype)
	}
	return dst, nil
}

// Decode parses one tensor from the front of src and returns it along with
// the remaining bytes.
func Decode(src []byte) (*Tensor, []byte, error) { return decode(src, false) }

// DecodePooled parses one tensor like Decode but draws rank-1 outputs from
// the tensor pool — the shape every transport chunk has — so the decode
// itself allocates nothing in steady state. The caller owns the result and
// should Recycle it once consumed.
func DecodePooled(src []byte) (*Tensor, []byte, error) { return decode(src, true) }

func decode(src []byte, pooled bool) (*Tensor, []byte, error) {
	if len(src) < 1 {
		return nil, src, fmt.Errorf("tensor: truncated header")
	}
	dt := DType(src[0])
	if dt.Size() == 0 {
		return nil, src, fmt.Errorf("tensor: bad dtype byte %d", src[0])
	}
	src = src[1:]
	rank, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, src, fmt.Errorf("tensor: truncated rank")
	}
	src = src[n:]
	if rank > 32 {
		return nil, src, fmt.Errorf("tensor: implausible rank %d", rank)
	}
	// Read the shape and check the payload is all there before allocating:
	// the header is untrusted, and a dozen bytes must not be able to demand
	// gigabytes (or, through an overflowed dimension, a panic).
	var shape Shape
	elems := 1
	if rank == 1 {
		// Flat tensors skip the Shape allocation entirely and may come from
		// the pool: this is the chunk-relay fast path.
		d, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, src, fmt.Errorf("tensor: truncated shape")
		}
		src = src[n:]
		if d > uint64(MaxEncodedBytes)/uint64(dt.Size()) {
			return nil, src, ErrTooLarge
		}
		elems = int(d)
	} else if rank > 1 {
		shape = make(Shape, rank)
		limit := uint64(MaxEncodedBytes) / uint64(dt.Size())
		for i := range shape {
			d, n := binary.Uvarint(src)
			if n <= 0 {
				return nil, src, fmt.Errorf("tensor: truncated shape")
			}
			src = src[n:]
			if d > limit || uint64(elems)*d > limit {
				return nil, src, ErrTooLarge
			}
			shape[i] = int(d)
			elems *= int(d)
		}
	}
	need := elems * dt.Size()
	if len(src) < need {
		return nil, src, fmt.Errorf("tensor: payload truncated: need %d bytes, have %d", need, len(src))
	}
	var t *Tensor
	switch {
	case rank == 0 && pooled:
		// Scalars are the streaming-predict per-row result shape; pool them
		// like flat chunks so that decode path stays allocation-free too.
		t = GetPooledScalar(dt)
	case rank == 1 && pooled:
		t = GetPooled(dt, elems)
	case rank == 1:
		t = New(dt, elems)
	default:
		t = New(dt, shape...)
	}
	buf := src[:need]
	switch dt {
	case Float32:
		d := t.F32()
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	case Float64:
		d := t.F64()
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	case Complex64:
		d := t.C64()
		for i := range d {
			re := math.Float32frombits(binary.LittleEndian.Uint32(buf[i*8:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(buf[i*8+4:]))
			d[i] = complex(re, im)
		}
	case Complex128:
		d := t.C128()
		for i := range d {
			re := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*16:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*16+8:]))
			d[i] = complex(re, im)
		}
	case Int32:
		d := t.I32()
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	case Int64:
		d := t.I64()
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	case Bool:
		d := t.Bools()
		for i := range d {
			d[i] = buf[i] != 0
		}
	}
	return t, src[need:], nil
}
