package tensor

import (
	"bytes"
	"testing"
)

// FuzzTensorDecode walks arbitrary bytes through the wire/checkpoint tensor
// decoder. Decode and DecodePooled must agree on the error, the dtype, the
// shape, the payload bits and the bytes left over; an accepted tensor must
// re-encode to exactly the bytes it was decoded from (only canonical
// encodings decode); and no input may panic. Pooled results are recycled, so later iterations decode into
// tensors holding stale contents.
func FuzzTensorDecode(f *testing.F) {
	for _, t := range []*Tensor{
		ScalarF64(2.5),
		FromF64(Shape{3}, []float64{1, -2, 3}),
		FromF32(Shape{2, 2}, []float32{1, 2, 3, 4}),
		New(Complex128, 2),
		New(Complex64, 1, 3),
		New(Int32, 0),
		New(Int64, 2, 0, 3),
		New(Bool, 4),
	} {
		b, err := t.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(append(b, 0xff)) // trailing bytes stay in rest
		f.Add(b[:len(b)-1])    // payload truncated
	}
	f.Add([]byte{})
	f.Add([]byte{0xee, 0x01})                                        // unknown dtype
	f.Add([]byte{byte(Float64), 0x21})                               // rank 33
	f.Add([]byte{byte(Float64), 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 elements claimed
	f.Add([]byte{byte(Bool), 0x01, 0x02, 0x00, 0x07})                // non-0/1 bool byte
	f.Add([]byte{byte(Int32), 0x01, 0x81, 0x00, 1, 2, 3, 4})         // padded dim
	f.Fuzz(func(t *testing.T, src []byte) {
		a, restA, errA := Decode(src)
		p, restP, errP := DecodePooled(src)
		if (errA == nil) != (errP == nil) {
			t.Fatalf("Decode err %v, DecodePooled err %v", errA, errP)
		}
		if errA != nil {
			if errA.Error() != errP.Error() {
				t.Fatalf("errors differ: %q vs %q", errA, errP)
			}
			return
		}
		defer Recycle(p)
		if len(restA) != len(restP) {
			t.Fatalf("rest %d vs %d bytes", len(restA), len(restP))
		}
		if a.DType() != p.DType() || !a.Shape().Equal(p.Shape()) {
			t.Fatalf("Decode %v%v, DecodePooled %v%v", a.DType(), a.Shape(), p.DType(), p.Shape())
		}
		encA, err := a.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		encP, err := p.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encA, encP) {
			t.Fatal("Decode and DecodePooled payload bits differ")
		}
		if used := src[:len(src)-len(restA)]; !bytes.Equal(encA, used) {
			t.Fatalf("accepted %x re-encodes to %x", used, encA)
		}
	})
}
