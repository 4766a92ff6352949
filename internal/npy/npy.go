// Package npy reads and writes NumPy .npy files (format version 1.0) for
// the dtypes the applications use: <f4, <f8, <i8 and <c16. The paper's
// matmul and FFT applications pre-process their inputs into .npy tile files
// ("Tile_1_2.npy, ...") that workers stream from the parallel filesystem;
// this package is the moral equivalent of the numpy.save/load pair, byte
// compatible with NumPy for supported dtypes.
package npy

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tfhpc/internal/tensor"
)

var magic = []byte("\x93NUMPY")

func descrFor(dt tensor.DType) (string, error) {
	switch dt {
	case tensor.Float32:
		return "<f4", nil
	case tensor.Float64:
		return "<f8", nil
	case tensor.Int64:
		return "<i8", nil
	case tensor.Complex128:
		return "<c16", nil
	}
	return "", fmt.Errorf("npy: unsupported dtype %v", dt)
}

func dtypeFor(descr string) (tensor.DType, error) {
	switch descr {
	case "<f4", "|f4", "f4":
		return tensor.Float32, nil
	case "<f8", "|f8", "f8":
		return tensor.Float64, nil
	case "<i8", "|i8", "i8":
		return tensor.Int64, nil
	case "<c16", "|c16", "c16":
		return tensor.Complex128, nil
	}
	return tensor.Invalid, fmt.Errorf("npy: unsupported descr %q", descr)
}

// Header returns the .npy v1.0 preamble — magic, version, header length and
// the padded header dict — of a C-order array of dtype dt and the given
// shape. The payload follows it directly, so writers that place payload
// bytes themselves (core's tile writers) start them at len(Header(...)).
func Header(dt tensor.DType, shape tensor.Shape) ([]byte, error) {
	descr, err := descrFor(dt)
	if err != nil {
		return nil, err
	}
	dims := make([]string, len(shape))
	for i, d := range shape {
		dims[i] = strconv.Itoa(d)
	}
	shapeStr := strings.Join(dims, ", ")
	if len(shape) == 1 {
		shapeStr += ","
	}
	header := fmt.Sprintf("{'descr': '%s', 'fortran_order': False, 'shape': (%s), }", descr, shapeStr)
	// Pad with spaces so that magic+version+len+header is a multiple of 64,
	// ending in newline (the NumPy convention).
	unpadded := len(magic) + 2 + 2 + len(header) + 1
	pad := (64 - unpadded%64) % 64
	header += strings.Repeat(" ", pad) + "\n"

	out := make([]byte, 0, unpadded+pad)
	out = append(out, magic...)
	out = append(out, 1, 0) // version 1.0
	out = binary.LittleEndian.AppendUint16(out, uint16(len(header)))
	return append(out, header...), nil
}

// Write serializes t to w in .npy v1.0 format.
func Write(w io.Writer, t *tensor.Tensor) error {
	hdr, err := Header(t.DType(), t.Shape())
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(t.Payload())
	return err
}

// Read parses one .npy v1.x file from r.
func Read(r io.Reader) (*tensor.Tensor, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("npy: short magic: %w", err)
	}
	if string(head[:6]) != string(magic) {
		return nil, fmt.Errorf("npy: bad magic %q", head[:6])
	}
	major := head[6]
	var hlen int
	switch major {
	case 1:
		var b [2]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		hlen = int(binary.LittleEndian.Uint16(b[:]))
	case 2, 3:
		var b [4]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		hlen = int(binary.LittleEndian.Uint32(b[:]))
	default:
		return nil, fmt.Errorf("npy: unsupported version %d.%d", head[6], head[7])
	}
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("npy: header of %d bytes exceeds %d", hlen, maxHeaderBytes)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("npy: short header: %w", err)
	}
	descr, fortran, shape, err := parseHeader(string(hdr))
	if err != nil {
		return nil, err
	}
	if fortran {
		return nil, fmt.Errorf("npy: fortran_order arrays are not supported")
	}
	dt, err := dtypeFor(descr)
	if err != nil {
		return nil, err
	}
	// The header is untrusted: check the payload it declares can exist
	// before allocating it, so a hundred bytes cannot demand a terabyte.
	need, err := payloadBytes(shape, dt.Size())
	if err != nil {
		return nil, err
	}
	if left, ok := remaining(r); ok && left < need {
		return nil, fmt.Errorf("npy: header declares a %d-byte payload, %d bytes follow", need, left)
	}
	// The payload goes straight into the tensor's storage.
	t := tensor.New(dt, shape...)
	if _, err := io.ReadFull(r, t.Bytes()); err != nil {
		return nil, fmt.Errorf("npy: short payload: %w", err)
	}
	tensor.SwapHostOrder(t.Bytes(), dt)
	return t, nil
}

// maxHeaderBytes bounds the header length a file may declare (NumPy's own
// reader refuses longer headers by default too).
const maxHeaderBytes = 10000

// maxRank bounds the dimensions a header may declare, as tensor.Decode does.
const maxRank = 32

// payloadBytes is the byte size of a shape's payload, or an error when the
// element count times the element size overflows an int.
func payloadBytes(shape tensor.Shape, size int) (int64, error) {
	limit := math.MaxInt / size
	elems := 1
	for _, d := range shape {
		if d != 0 && elems > limit/d {
			return 0, fmt.Errorf("npy: shape %v overflows", shape)
		}
		elems *= d
	}
	return int64(elems) * int64(size), nil
}

// remaining reports how many bytes r still holds, when r can tell: an
// in-memory reader, or a regular file (its size less the read offset).
func remaining(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// parseHeader extracts the three fields from the Python dict literal NumPy
// writes. The parser is deliberately narrow: it handles exactly the grammar
// numpy.save produces (and that Write above produces).
func parseHeader(h string) (descr string, fortran bool, shape tensor.Shape, err error) {
	get := func(key string) (string, bool) {
		i := strings.Index(h, "'"+key+"'")
		if i < 0 {
			return "", false
		}
		rest := h[i+len(key)+2:]
		j := strings.Index(rest, ":")
		if j < 0 {
			return "", false
		}
		rest = strings.TrimSpace(rest[j+1:])
		return rest, true
	}
	dv, ok := get("descr")
	if !ok || len(dv) < 2 || dv[0] != '\'' {
		return "", false, nil, fmt.Errorf("npy: header missing descr: %q", h)
	}
	end := strings.IndexByte(dv[1:], '\'')
	if end < 0 {
		return "", false, nil, fmt.Errorf("npy: unterminated descr: %q", h)
	}
	descr = dv[1 : 1+end]

	fv, ok := get("fortran_order")
	if !ok {
		return "", false, nil, fmt.Errorf("npy: header missing fortran_order: %q", h)
	}
	fortran = strings.HasPrefix(fv, "True")

	sv, ok := get("shape")
	if !ok || len(sv) == 0 || sv[0] != '(' {
		return "", false, nil, fmt.Errorf("npy: header missing shape: %q", h)
	}
	close := strings.IndexByte(sv, ')')
	if close < 0 {
		return "", false, nil, fmt.Errorf("npy: unterminated shape: %q", h)
	}
	for _, part := range strings.Split(sv[1:close], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil || d < 0 {
			return "", false, nil, fmt.Errorf("npy: bad shape dim %q", part)
		}
		if len(shape) == maxRank {
			return "", false, nil, fmt.Errorf("npy: shape has more than %d dims", maxRank)
		}
		shape = append(shape, d)
	}
	return descr, fortran, shape, nil
}

// Save writes t to the named file.
func Save(path string, t *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a tensor from the named file.
func Load(path string) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
