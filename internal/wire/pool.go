package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
)

// Frame buffer pool. The transport hot loops (stream frames, collective
// chunks, serving requests) read one frame per message; without reuse every
// frame is a fresh allocation sized by the peer. Buffers are pooled in
// power-of-two size classes behind a plain mutex-guarded free list rather
// than sync.Pool: Put of a []byte through an interface forces the slice
// header to escape, which would put an allocation back on the very path the
// pool exists to clear.
//
// Ownership contract: GetBuf transfers ownership to the caller; PutBuf
// transfers it back. A buffer must not be touched after PutBuf, and PutBuf
// must be called at most once per GetBuf. Buffers from elsewhere may be
// handed to PutBuf too — odd capacities are simply dropped.
const (
	minBufClass = 8  // 256 B: below this pooling costs more than malloc
	maxBufClass = 22 // 4 MiB: above this, buffers are left to the GC
	maxPerClass = 64 // bound per-class retention at a few hundred MiB total
)

var bufClasses [maxBufClass + 1]struct {
	mu   sync.Mutex
	free [][]byte
}

// GetBuf returns a buffer of length n with unspecified contents, drawn from
// the pool when a large-enough buffer is available.
func GetBuf(n int) []byte {
	c := sizeClass(n)
	if c > maxBufClass {
		return make([]byte, n)
	}
	bc := &bufClasses[c]
	bc.mu.Lock()
	if k := len(bc.free); k > 0 {
		b := bc.free[k-1]
		bc.free[k-1] = nil
		bc.free = bc.free[:k-1]
		bc.mu.Unlock()
		return b[:n]
	}
	bc.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer obtained from GetBuf (or any buffer the caller is
// done with) to the pool. The caller must not use b afterwards.
func PutBuf(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	bc := &bufClasses[c]
	bc.mu.Lock()
	if len(bc.free) < maxPerClass {
		bc.free = append(bc.free, b[:0])
	}
	bc.mu.Unlock()
}

// sizeClass returns the smallest class whose buffers hold n bytes.
func sizeClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the largest class a buffer of capacity c can serve, or -1
// if it is too small to pool.
func capClass(c int) int {
	k := bits.Len(uint(c)) - 1
	if k < minBufClass {
		return -1
	}
	if k > maxBufClass {
		return maxBufClass
	}
	return k
}

// FrameReader reads length-prefixed frames into pooled buffers through a
// buffered reader of its own, so a small frame that has already arrived
// costs one read of the underlying reader, and a large one is read straight
// into its buffer. A read that fails part way — a deadline that interrupts
// it, say — leaves the frame in progress with the FrameReader, and the next
// call carries on where it stopped: a frame is never torn. One goroutine at
// a time may use it.
type FrameReader struct {
	br   *bufio.Reader
	hdr  [4]byte
	nh   int    // length-prefix bytes read
	body []byte // the frame being read (pooled), nil between frames
	nb   int    // body bytes read
}

// NewFrameReader returns a FrameReader over r with a size-byte buffer.
func NewFrameReader(r io.Reader, size int) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, size)}
}

// Next returns the next whole frame in a pooled buffer the caller owns and
// should hand back with PutBuf once consumed. io.EOF means the stream ended
// between frames, io.ErrUnexpectedEOF inside one.
func (r *FrameReader) Next() ([]byte, error) {
	for r.nh < len(r.hdr) {
		n, err := r.br.Read(r.hdr[r.nh:])
		r.nh += n
		if err != nil {
			return nil, r.readErr(err)
		}
	}
	if r.body == nil {
		n := binary.BigEndian.Uint32(r.hdr[:])
		if int64(n) > MaxMessageSize {
			return nil, ErrMessageTooLarge
		}
		r.body, r.nb = GetBuf(int(n)), 0
	}
	for r.nb < len(r.body) {
		n, err := r.br.Read(r.body[r.nb:])
		r.nb += n
		if err != nil {
			return nil, r.readErr(err)
		}
	}
	b := r.body
	r.body, r.nh = nil, 0
	return b, nil
}

func (r *FrameReader) readErr(err error) error {
	if err == io.EOF && r.nh > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}
