package collective

import (
	"strings"
	"testing"

	"tfhpc/internal/tensor"
)

// The two tests below play a hostile rank 0 that sends one 24-byte header
// claiming an 8 TiB tensor. Rank 1 must fail the collective with an error
// before sizing anything from it; sized as claimed, the allocation is a
// fatal out-of-memory error that takes the whole process down.

func TestBroadcastHeaderOverBound(t *testing.T) {
	gs := NewLoopbackGroups(2, Options{})
	hdr := tensor.FromI64(tensor.Shape{2}, []int64{int64(tensor.Float64), 1 << 40})
	if err := gs[0].tr.Send(1, "bc", tag(1, phaseTree, 0, 0), hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := gs[1].Broadcast("bc", nil, 0); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("Broadcast = %v, want the header rejected", err)
	}
}

func TestAllGatherVHeaderOverBound(t *testing.T) {
	gs := NewLoopbackGroups(2, Options{})
	hdr := tensor.FromI64(tensor.Shape{3}, []int64{1 << 40, 1, -1}) // rows, elements per row, root
	if err := gs[0].tr.Send(1, "agv", tag(1, phaseGatherV, 0, 0), hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := gs[1].AllGatherV("agv", tensor.New(tensor.Float64, 1)); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("AllGatherV = %v, want the header rejected", err)
	}
}
