package vars

import (
	"strings"
	"sync"
	"testing"

	"tfhpc/internal/tensor"
)

func TestUninitializedRead(t *testing.T) {
	s := NewStore()
	v := s.Get("w")
	if v.Initialized() {
		t.Fatal("fresh variable should be uninitialized")
	}
	if _, err := v.Read(); err == nil {
		t.Fatal("read before init should error")
	}
	if err := v.AssignAdd(tensor.ScalarF64(1)); err == nil {
		t.Fatal("AssignAdd before init should error")
	}
}

func TestAssignReadRoundTrip(t *testing.T) {
	s := NewStore()
	v := s.Get("w")
	val := tensor.FromF64(tensor.Shape{2}, []float64{1, 2})
	if err := v.Assign(val); err != nil {
		t.Fatal(err)
	}
	got, err := v.Read()
	if err != nil || !got.Equal(val) {
		t.Fatalf("read: %v", err)
	}
	// Assign copies: mutating the source must not change the variable.
	val.F64()[0] = 99
	got, _ = v.Read()
	if got.F64()[0] == 99 {
		t.Fatal("Assign should deep copy")
	}
}

func TestAssignShapeDTypeLocked(t *testing.T) {
	s := NewStore()
	v := s.Get("w")
	v.Assign(tensor.FromF64(tensor.Shape{2}, []float64{1, 2}))
	if err := v.Assign(tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3})); err == nil {
		t.Fatal("shape change should error")
	}
	if err := v.Assign(tensor.FromF32(tensor.Shape{2}, []float32{1, 2})); err == nil {
		t.Fatal("dtype change should error")
	}
	if err := v.AssignAdd(tensor.FromF32(tensor.Shape{2}, []float32{1, 2})); err == nil {
		t.Fatal("AssignAdd dtype change should error")
	}
}

func TestAssignAddAccumulates(t *testing.T) {
	s := NewStore()
	v := s.Get("acc")
	v.Assign(tensor.FromF64(tensor.Shape{3}, []float64{0, 0, 0}))
	for i := 0; i < 5; i++ {
		if err := v.AssignAdd(tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3})); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := v.Read()
	if got.F64()[0] != 5 || got.F64()[1] != 10 || got.F64()[2] != 15 {
		t.Fatalf("accumulated %v", got.F64())
	}
}

func TestAssignAddConcurrent(t *testing.T) {
	s := NewStore()
	v := s.Get("acc")
	v.Assign(tensor.ScalarF64(0))
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.AssignAdd(tensor.ScalarF64(1))
		}()
	}
	wg.Wait()
	got, _ := v.Read()
	if got.ScalarFloat() != n {
		t.Fatalf("lost updates: %v", got.ScalarFloat())
	}
}

func TestStoreIdentityAndNames(t *testing.T) {
	s := NewStore()
	a := s.Get("x")
	b := s.Get("x")
	if a != b {
		t.Fatal("Get should return the same variable")
	}
	s.Get("y").Assign(tensor.ScalarF64(1))
	s.Get("a").Assign(tensor.ScalarF64(2))
	names := s.Names()
	if strings.Join(names, ",") != "a,y" {
		t.Fatalf("Names = %v (want initialized only, sorted)", names)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Get("x").Assign(tensor.FromF64(tensor.Shape{2}, []float64{1, 2}))
	s.Get("i").Assign(tensor.ScalarI64(7))
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	// Snapshot is deep: later mutation must not affect it.
	s.Get("x").AssignAdd(tensor.FromF64(tensor.Shape{2}, []float64{10, 10}))
	if snap["x"].F64()[0] != 1 {
		t.Fatal("snapshot aliases live state")
	}
	fresh := NewStore()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Get("x").Read()
	if got.F64()[1] != 2 {
		t.Fatalf("restored %v", got.F64())
	}
	if v, _ := fresh.Get("i").Read(); v.ScalarInt() != 7 {
		t.Fatal("restored int wrong")
	}
}

func TestComplexAssignAdd(t *testing.T) {
	s := NewStore()
	v := s.Get("c")
	v.Assign(tensor.FromC128(tensor.Shape{1}, []complex128{1 + 1i}))
	v.AssignAdd(tensor.FromC128(tensor.Shape{1}, []complex128{2 - 3i}))
	got, _ := v.Read()
	if got.C128()[0] != 3-2i {
		t.Fatalf("complex AssignAdd = %v", got.C128()[0])
	}
}

func TestAdoptStoresTheTensorItself(t *testing.T) {
	v := NewStore().Get("w")
	val := tensor.FromF64(tensor.Shape{2}, []float64{1, 2})
	if err := v.Adopt(val); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Read(); got != val {
		t.Fatal("Adopt should store the tensor itself")
	}
	if err := v.Adopt(tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3})); err == nil {
		t.Fatal("Adopt must keep the shape fixed by the first assignment")
	}
}

// AssignAdd copies an adopted value before writing, so the tensor handed
// to Adopt, which others may still read, never changes; later adds go in
// place into the variable's own copy.
func TestAssignAddCopiesAnAdoptedValue(t *testing.T) {
	v := NewStore().Get("w")
	val := tensor.FromF64(tensor.Shape{2}, []float64{1, 2})
	v.Adopt(val)
	if err := v.AssignAdd(tensor.FromF64(tensor.Shape{2}, []float64{10, 10})); err != nil {
		t.Fatal(err)
	}
	if val.F64()[0] != 1 || val.F64()[1] != 2 {
		t.Fatalf("adopted tensor changed under AssignAdd: %v", val.F64())
	}
	own, _ := v.Read()
	if own == val || own.F64()[0] != 11 || own.F64()[1] != 12 {
		t.Fatalf("after AssignAdd the variable holds %v", own.F64())
	}
	v.AssignAdd(tensor.FromF64(tensor.Shape{2}, []float64{1, 1}))
	if again, _ := v.Read(); again != own || again.F64()[0] != 12 {
		t.Fatal("a second AssignAdd should write the variable's own copy in place")
	}
}
