// Package wire implements the ProtoBuf-style binary encoding used by the
// runtime for RPC messages, GraphDefs and checkpoints: varint-tagged fields
// with the standard four wire types, plus length-prefixed framing for
// streams. It enforces the 2 GiB message ceiling that the paper identifies
// as a practical limitation of serialized TensorFlow graphs.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// WireType mirrors ProtoBuf's on-the-wire value kinds.
type WireType int

const (
	TVarint  WireType = 0
	TFixed64 WireType = 1
	TBytes   WireType = 2
	TFixed32 WireType = 5
)

// MaxMessageSize is the 2 GiB ProtoBuf-compatible limit on any one message.
const MaxMessageSize = int64(2) << 30

// ErrMessageTooLarge is returned when a frame or message exceeds
// MaxMessageSize. The CG section of the paper discusses hitting exactly this
// ceiling with unrolled-loop graphs.
var ErrMessageTooLarge = fmt.Errorf("wire: message exceeds 2 GiB limit")

// Uvarint is binary.Uvarint refusing padded (non-minimal) encodings, so
// every value has exactly one accepted form: n ≤ 0 unless b starts with
// the minimal uvarint of v.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// Encoder accumulates tagged fields into a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded message. The slice aliases internal storage.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) tag(field int, wt WireType) {
	e.buf = binary.AppendUvarint(e.buf, uint64(field)<<3|uint64(wt))
}

// Uint encodes an unsigned varint field.
func (e *Encoder) Uint(field int, v uint64) {
	e.tag(field, TVarint)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int encodes a signed varint field with zig-zag encoding.
func (e *Encoder) Int(field int, v int64) {
	e.Uint(field, uint64((v<<1)^(v>>63)))
}

// Bool encodes a boolean varint field.
func (e *Encoder) Bool(field int, v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	e.Uint(field, b)
}

// Double encodes a float64 as fixed64.
func (e *Encoder) Double(field int, v float64) {
	e.tag(field, TFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Float encodes a float32 as fixed32.
func (e *Encoder) Float(field int, v float32) {
	e.tag(field, TFixed32)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
}

// Bytes encodes a length-delimited byte field.
func (e *Encoder) BytesField(field int, b []byte) {
	e.tag(field, TBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String encodes a length-delimited string field.
func (e *Encoder) String(field int, s string) {
	e.tag(field, TBytes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Message encodes a nested message built by fn as a length-delimited field.
func (e *Encoder) Message(field int, fn func(*Encoder)) {
	sub := NewEncoder()
	fn(sub)
	e.BytesField(field, sub.Bytes())
}

// Decoder walks the fields of an encoded message.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// More reports whether any bytes remain.
func (d *Decoder) More() bool { return d.off < len(d.buf) }

// Next reads the next field tag. It returns io.EOF when the message is
// exhausted.
func (d *Decoder) Next() (field int, wt WireType, err error) {
	if !d.More() {
		return 0, 0, io.EOF
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: bad tag varint at offset %d", d.off)
	}
	d.off += n
	return int(v >> 3), WireType(v & 7), nil
}

// Uint reads a varint value.
func (d *Decoder) Uint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// Int reads a zig-zag encoded signed value.
func (d *Decoder) Int() (int64, error) {
	u, err := d.Uint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// Bool reads a boolean varint value.
func (d *Decoder) Bool() (bool, error) {
	u, err := d.Uint()
	return u != 0, err
}

// Double reads a fixed64 float.
func (d *Decoder) Double() (float64, error) {
	if d.off+8 > len(d.buf) {
		return 0, fmt.Errorf("wire: truncated fixed64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

// Float reads a fixed32 float.
func (d *Decoder) Float() (float32, error) {
	if d.off+4 > len(d.buf) {
		return 0, fmt.Errorf("wire: truncated fixed32")
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	return v, nil
}

// Bytes reads a length-delimited field. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uint()
	if err != nil {
		return nil, err
	}
	// Compared unsigned: a length of 2^63 or more must not wrap negative and
	// slip past both bounds.
	if n > uint64(MaxMessageSize) {
		return nil, ErrMessageTooLarge
	}
	if d.off+int(n) > len(d.buf) {
		return nil, fmt.Errorf("wire: truncated bytes field: want %d, have %d", n, len(d.buf)-d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// StringVal reads a length-delimited field as a string.
func (d *Decoder) StringVal() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Skip discards a field of the given wire type.
func (d *Decoder) Skip(wt WireType) error {
	switch wt {
	case TVarint:
		_, err := d.Uint()
		return err
	case TFixed64:
		_, err := d.Double()
		return err
	case TFixed32:
		_, err := d.Float()
		return err
	case TBytes:
		_, err := d.Bytes()
		return err
	}
	return fmt.Errorf("wire: unknown wire type %d", wt)
}

// WriteFrame writes a length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if int64(len(payload)) > MaxMessageSize {
		return ErrMessageTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
