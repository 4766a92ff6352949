package tensor

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"tfhpc/internal/wire"
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
// discusses for serialized graphs. The payload is the tensor's storage
// bytes (Bytes) in little-endian order, so it is copied as one block, never
// element by element. Only the canonical encoding decodes — every uvarint
// minimal, every bool byte 0 or 1 — so a tensor Decode accepts re-encodes
// to exactly the bytes it was read from.

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
	if t.dtype.Size() == 0 {
		return dst, fmt.Errorf("tensor: cannot encode dtype %v", t.dtype)
	}
	if t.EncodedSize() > MaxEncodedBytes {
		return dst, ErrTooLarge
	}
	dst = append(dst, byte(t.dtype))
	dst = binary.AppendUvarint(dst, uint64(t.Rank()))
	for _, d := range t.shape {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	return append(dst, t.Payload()...), nil
}

// Decode parses one tensor from the front of src and returns it along with
// the remaining bytes.
func Decode(src []byte) (*Tensor, []byte, error) { return decode(src, false) }

// DecodeAll parses a tensor that fills src exactly: bytes after it, as in a
// length-delimited field holding junk past a valid tensor, are an error.
func DecodeAll(src []byte) (*Tensor, error) {
	t, rest, err := Decode(src)
	if err == nil && len(rest) != 0 {
		return nil, fmt.Errorf("tensor: %d trailing bytes", len(rest))
	}
	return t, err
}

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
	rank, n := wire.Uvarint(src)
	if n <= 0 {
		return nil, src, fmt.Errorf("tensor: truncated or padded rank")
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
		d, n := wire.Uvarint(src)
		if n <= 0 {
			return nil, src, fmt.Errorf("tensor: truncated or padded shape")
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
			d, n := wire.Uvarint(src)
			if n <= 0 {
				return nil, src, fmt.Errorf("tensor: truncated or padded shape")
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
	payload := src[:need]
	if dt == Bool {
		// A Go bool holding any other byte is not a valid value.
		for _, c := range payload {
			if c > 1 {
				return nil, src, fmt.Errorf("tensor: bool byte %d", c)
			}
		}
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
	b := t.Bytes()
	copy(b, payload)
	SwapHostOrder(b, dt)
	return t, src[need:], nil
}

// Elem is the Go type of a tensor's elements: one per DType.
type Elem interface {
	float32 | float64 | complex64 | complex128 | int32 | int64 | bool
}

// AsBytes returns the memory of s as bytes, aliasing it: writes through the
// result change s. In little-endian order (SwapHostOrder) these are the
// payload bytes of s's elements.
func AsBytes[T Elem](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// Bytes returns t's storage as bytes, aliasing it (AsBytes of its backing
// slice).
func (t *Tensor) Bytes() []byte {
	switch d := t.data.(type) {
	case []float32:
		return AsBytes(d)
	case []float64:
		return AsBytes(d)
	case []complex64:
		return AsBytes(d)
	case []complex128:
		return AsBytes(d)
	case []int32:
		return AsBytes(d)
	case []int64:
		return AsBytes(d)
	case []bool:
		return AsBytes(d)
	}
	return nil
}

// Payload returns t's payload: its storage bytes in little-endian order.
// On a little-endian host that is t's storage itself, aliased, so callers
// must not write to it; on a big-endian host it is a swapped copy.
func (t *Tensor) Payload() []byte {
	b := t.Bytes()
	if bigEndian {
		b = slices.Clone(b)
		SwapHostOrder(b, t.dtype)
	}
	return b
}

// bigEndian reports whether the host stores numbers big-endian, so storage
// bytes must be swapped to and from payload bytes. Tests set it to run the
// big-endian path on a little-endian host.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// SwapHostOrder converts b, the bytes of dt elements, between host order
// and little-endian in place; the conversion is its own inverse. On a
// big-endian host it reverses the bytes of every number (each half of a
// complex element); on a little-endian host it does nothing.
func SwapHostOrder(b []byte, dt DType) {
	if !bigEndian {
		return
	}
	size := dt.Size()
	if dt.IsComplex() {
		size /= 2
	}
	swapWords(b, size)
}

// swapWords reverses the bytes of every size-byte word of b in place.
func swapWords(b []byte, size int) {
	for i := 0; i+size <= len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}
