package collective

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tfhpc/internal/tensor"
)

// FuzzParseChunk feeds arbitrary bytes to the relay-record parser every
// stream edge runs on untrusted input. Malformed records must come back as
// errors — never a panic — and whatever parses must re-encode through
// appendChunk to exactly its own bytes (only canonical records parse).
func FuzzParseChunk(f *testing.F) {
	for _, t := range []*tensor.Tensor{
		tensor.RandomUniform(tensor.Float64, 1, 64),
		tensor.RandomUniform(tensor.Float32, 2, 7),
		tensor.New(tensor.Int32, 0),
		tensor.RandomUniform(tensor.Float64, 3, 2, 3),
	} {
		rec, err := appendChunk(nil, "1\x00ar/rs", 42, t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)-1]) // truncated payload
		f.Add(append(rec, 0))   // trailing byte
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'k'})               // key length past the record
	f.Add([]byte{0x81, 0x00, 'k', 0x2a, byte(tensor.Int32), 1, 0}) // padded key length

	f.Fuzz(func(t *testing.T, data []byte) {
		key, tag, ten, err := parseChunk(data)
		if err != nil {
			return
		}
		defer tensor.Recycle(ten)
		again, err := appendChunk(nil, string(key), tag, ten)
		if err != nil {
			t.Fatalf("parsed chunk does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record %x re-encodes to %x", data, again)
		}
	})
}

// FuzzCollectiveHeaders feeds arbitrary int64 vectors to the checks every
// peer-sent collective header passes before anything is sized from it: as a
// broadcast header (dtype, then dims) and as the size headers of a gather
// round (rows, elements per row, root per rank, the first rank's header
// standing for this rank's). Neither may panic, and whatever they accept
// must fit in one encodable tensor.
func FuzzCollectiveHeaders(f *testing.F) {
	for _, hdr := range [][]int64{
		{int64(tensor.Float64), 3, 4},
		{int64(tensor.Float64), 1 << 40},
		{int64(tensor.Bool), 0, 1 << 62, 1 << 62},
		{int64(tensor.Complex64), 1 << 20, 1 << 20},
		{2, 3, -1, 5, 3, -1, 0, 3, -1},
		{1 << 40, 1, -1, 1, 1, -1},
		{1 << 30, 0, 2, 1 << 30, 0, 2, 1 << 30, 0, 2},
		{-1},
	} {
		var data []byte
		for _, v := range hdr {
			data = binary.LittleEndian.AppendUint64(data, uint64(v))
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := make([]int64, len(data)/8)
		for i := range hdr {
			hdr[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if dt, shape, err := broadcastShape(hdr); err == nil {
			bytes := float64(dt.Size())
			for _, d := range shape {
				bytes *= float64(d)
			}
			if bytes > float64(tensor.MaxEncodedBytes) {
				t.Fatalf("broadcast header %v accepted: %v%v is %g bytes", hdr, dt, shape, bytes)
			}
		}

		if len(hdr) < 3 || hdr[1] < 0 {
			return // this rank's own elements per row are never negative
		}
		hdrs := make([][3]int64, len(hdr)/3)
		for s := range hdrs {
			copy(hdrs[s][:], hdr[3*s:])
		}
		rowElems, root := int(hdr[1]), int(hdr[2])
		for _, dt := range []tensor.DType{tensor.Bool, tensor.Complex128} {
			rows, offs, err := shardLayout(hdrs, 0, rowElems, root, dt)
			if err != nil {
				continue
			}
			if float64(rows)*float64(rowElems)*float64(dt.Size()) > float64(tensor.MaxEncodedBytes) {
				t.Fatalf("size headers %v accepted: %d rows of %d %v elements", hdrs, rows, rowElems, dt)
			}
			for s := range hdrs {
				if offs[s+1]-offs[s] != int(hdrs[s][0])*rowElems {
					t.Fatalf("size headers %v: rank %d at [%d, %d)", hdrs, s, offs[s], offs[s+1])
				}
			}
			if offs[0] != 0 || offs[len(hdrs)] != rows*rowElems {
				t.Fatalf("size headers %v: offsets %v for %d rows", hdrs, offs, rows)
			}
		}
	})
}
