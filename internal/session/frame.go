package session

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// Partition stream frames: the protocol between a session and the tasks it
// runs registered partitions on. One frame is one rpc stream message:
//
//	register  1 | uvarint handle | GraphDef                     client → task
//	run       2 | uvarint handle | uvarint run | uvarint n | n × (uvarint key | tensor)
//	                                                            client → task
//	tensor    3 | uvarint run | uvarint key | tensor            both ways
//	done      4 | uvarint run | error text (empty: it ran)      task → client
//	abort     5 | uvarint run                                   client → task
//	head      6 | uvarint run | uvarint key | uvarint rank | rank × uvarint dim | tensor
//	                                                            both ways
//	more      7 | uvarint run | uvarint key | tensor            both ways
//
// handle names a registered partition on its stream; run is one execution
// of a plan, with the same id on every task of that Run, so a value going
// from one task to another relays through the client byte for byte; key is
// one partition edge of the plan. tensor is the tensor package's
// self-delimiting encoding. A run frame carries the small feeds its
// partition consumes inline, so a step whose only inputs are feeds costs one
// message per task. A value of more than maxChunkBytes travels as a head
// frame, carrying its shape and first chunk, then more frames carrying the
// rest in order; each chunk is a rank-1 tensor of the value's dtype.
//
// Decoding is strict — minimal varints, canonical tensors, no trailing
// bytes — so an accepted frame re-encodes to exactly its own bytes, and it
// validates every length before allocating for it.
const (
	frameRegister byte = iota + 1
	frameRun
	frameTensor
	frameDone
	frameAbort
	frameHead
	frameMore
)

// maxChunkBytes bounds the payload of one tensor, head or more frame, so
// every frame fits the wire buffer pool's largest class (4 MiB) and is
// recycled instead of allocated. Measured on the benchmark's sgd setup (2
// workers, 8 MiB of variables each, 2 vCPU): one unpooled 8.9 MB frame per
// worker took 22–46 ms, bimodal as fresh pages faulted in or freed spans
// were reused; pooled chunks took 22–35 ms, alike at 256 KiB, 1 MiB and
// 3 MiB.
const maxChunkBytes = 1 << 20

// frame is one decoded partition stream message.
type frame struct {
	kind   byte
	handle uint64 // register, run
	run    uint64 // every kind but register
	graph  []byte // register: the partition's GraphDef (aliases the frame)
	// run: the inline feeds; tensor, head, more: exactly one value or chunk.
	keys   []uint64
	vals   []*tensor.Tensor
	shape  tensor.Shape // head: the whole value's shape
	errMsg string       // done
}

var errFrame = errors.New("session: malformed partition frame")

// appendFrame appends f's encoding to dst.
func appendFrame(dst []byte, f *frame) ([]byte, error) {
	dst = append(dst, f.kind)
	switch f.kind {
	case frameRegister:
		dst = binary.AppendUvarint(dst, f.handle)
		return append(dst, f.graph...), nil
	case frameRun:
		dst = binary.AppendUvarint(dst, f.handle)
		dst = binary.AppendUvarint(dst, f.run)
		dst = binary.AppendUvarint(dst, uint64(len(f.keys)))
		return appendValues(dst, f.keys, f.vals)
	case frameTensor, frameHead, frameMore:
		if len(f.keys) != 1 || len(f.vals) != 1 {
			return dst, fmt.Errorf("session: value frame needs exactly one value, has %d", len(f.vals))
		}
		dst = binary.AppendUvarint(dst, f.run)
		if f.kind == frameHead {
			dst = binary.AppendUvarint(dst, f.keys[0])
			dst = binary.AppendUvarint(dst, uint64(len(f.shape)))
			for _, d := range f.shape {
				dst = binary.AppendUvarint(dst, uint64(d))
			}
			return f.vals[0].Encode(dst)
		}
		return appendValues(dst, f.keys, f.vals)
	case frameDone:
		dst = binary.AppendUvarint(dst, f.run)
		return append(dst, f.errMsg...), nil
	case frameAbort:
		return binary.AppendUvarint(dst, f.run), nil
	}
	return dst, fmt.Errorf("session: unknown partition frame kind %d", f.kind)
}

func appendValues(dst []byte, keys []uint64, vals []*tensor.Tensor) ([]byte, error) {
	if len(keys) != len(vals) {
		return dst, fmt.Errorf("session: %d keys for %d values", len(keys), len(vals))
	}
	for i, k := range keys {
		dst = binary.AppendUvarint(dst, k)
		var err error
		if dst, err = vals[i].Encode(dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeFrame parses one partition frame. graph aliases p; every tensor is
// decoded into memory of its own, drawn from the tensor pool.
func decodeFrame(p []byte) (frame, error) {
	if len(p) == 0 {
		return frame{}, errFrame
	}
	f := frame{kind: p[0]}
	r := frameReader{b: p[1:]}
	switch f.kind {
	case frameRegister:
		f.handle = r.uvarint()
		f.graph, r.b = r.b, nil
	case frameRun:
		f.handle = r.uvarint()
		f.run = r.uvarint()
		// n is untrusted: nothing is sized by it, and every value consumes
		// input bytes, so a short frame fails at its end.
		n := r.uvarint()
		for i := uint64(0); i < n && r.err == nil; i++ {
			f.keys = append(f.keys, r.uvarint())
			f.vals = append(f.vals, r.tensor())
		}
	case frameTensor, frameHead, frameMore:
		f.run = r.uvarint()
		f.keys = []uint64{r.uvarint()}
		if f.kind == frameHead {
			f.shape = r.shape()
		}
		f.vals = []*tensor.Tensor{r.tensor()}
	case frameDone:
		f.run = r.uvarint()
		f.errMsg, r.b = string(r.b), nil
	case frameAbort:
		f.run = r.uvarint()
	default:
		return frame{}, fmt.Errorf("%w: kind %d", errFrame, f.kind)
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", errFrame, len(r.b))
	}
	if r.err != nil {
		return frame{}, r.err
	}
	return f, nil
}

// frameReader consumes a frame body, latching the first error.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := wire.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad varint", errFrame)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) tensor() *tensor.Tensor {
	if r.err != nil {
		return nil
	}
	t, rest, err := tensor.DecodePooled(r.b)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", errFrame, err)
		return nil
	}
	r.b = rest
	return t
}

// shape reads a head frame's rank and dims, bounded like a tensor header's:
// at most 32 dims whose product stays within the 2 GiB encoding limit.
func (r *frameReader) shape() tensor.Shape {
	rank := r.uvarint()
	if r.err == nil && rank > 32 {
		r.err = fmt.Errorf("%w: rank %d", errFrame, rank)
	}
	if r.err != nil {
		return nil
	}
	s := make(tensor.Shape, rank)
	elems := uint64(1)
	for i := range s {
		d := r.uvarint()
		if d != 0 && elems > uint64(tensor.MaxEncodedBytes)/d {
			r.err = fmt.Errorf("%w: shape exceeds the 2 GiB limit", errFrame)
		}
		if r.err != nil {
			return nil
		}
		elems *= d
		s[i] = int(d)
	}
	return s
}

// sendValue ships one value under (run, key) through send: one tensor
// frame, or a head frame and more frames when it exceeds maxChunkBytes.
func sendValue(send func(p []byte) error, run, key uint64, t *tensor.Tensor) error {
	n := t.NumElements()
	per := maxChunkBytes / t.DType().Size()
	if n <= per {
		return sendFrame(send, &frame{kind: frameTensor, run: run, keys: []uint64{key}, vals: []*tensor.Tensor{t}})
	}
	for lo := 0; lo < n; lo += per {
		f := &frame{kind: frameMore, run: run, keys: []uint64{key}, vals: []*tensor.Tensor{t.Flat(lo, min(lo+per, n))}}
		if lo == 0 {
			f.kind, f.shape = frameHead, t.Shape()
		}
		if err := sendFrame(send, f); err != nil {
			return err
		}
	}
	return nil
}

// sendFrame encodes f into a pooled buffer, sized up front, and hands it to
// send.
func sendFrame(send func(p []byte) error, f *frame) error {
	n := 1 + (3+len(f.shape))*binary.MaxVarintLen64 + len(f.graph) + len(f.errMsg)
	for _, t := range f.vals {
		n += binary.MaxVarintLen64 + int(t.EncodedSize())
	}
	buf, err := appendFrame(wire.GetBuf(n)[:0], f)
	if err == nil {
		err = send(buf)
	}
	wire.PutBuf(buf)
	return err
}
