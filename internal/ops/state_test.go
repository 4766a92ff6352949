package ops

import (
	"fmt"
	"testing"

	"tfhpc/internal/tensor"
)

// fakeResources is a minimal in-memory ops.Resources for kernel tests.
type fakeResources struct {
	vars   map[string]*fakeVar
	queues map[string]*fakeQueue
}

type fakeVar struct{ val *tensor.Tensor }

func (v *fakeVar) Read() (*tensor.Tensor, error) {
	if v.val == nil {
		return nil, fmt.Errorf("uninitialized")
	}
	return v.val, nil
}
func (v *fakeVar) Assign(t *tensor.Tensor) error { v.val = t.Clone(); return nil }
func (v *fakeVar) Adopt(t *tensor.Tensor) error  { v.val = t; return nil }
func (v *fakeVar) AssignAdd(t *tensor.Tensor) error {
	if v.val == nil {
		return fmt.Errorf("uninitialized")
	}
	a, b := v.val.F64(), t.F64()
	for i := range a {
		a[i] += b[i]
	}
	return nil
}

type fakeQueue struct{ items [][]*tensor.Tensor }

func (q *fakeQueue) Enqueue(item []*tensor.Tensor) error { q.items = append(q.items, item); return nil }
func (q *fakeQueue) Dequeue() ([]*tensor.Tensor, error) {
	if len(q.items) == 0 {
		return nil, fmt.Errorf("empty")
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, nil
}
func (q *fakeQueue) Close() error { return nil }
func (q *fakeQueue) Size() int    { return len(q.items) }

func newFakeResources() *fakeResources {
	return &fakeResources{vars: map[string]*fakeVar{}, queues: map[string]*fakeQueue{}}
}

func (r *fakeResources) Variable(name string) (VariableHandle, error) {
	v, ok := r.vars[name]
	if !ok {
		v = &fakeVar{}
		r.vars[name] = v
	}
	return v, nil
}

func (r *fakeResources) Queue(name string, _ int) (QueueHandle, error) {
	q, ok := r.queues[name]
	if !ok {
		q = &fakeQueue{}
		r.queues[name] = q
	}
	return q, nil
}

func (r *fakeResources) Collective(name string) (CollectiveHandle, error) {
	return nil, fmt.Errorf("no collective group %q", name)
}

func ctxWith(res Resources, node string, attrs map[string]any) *Context {
	return &Context{NodeName: node, Attrs: attrs, Resources: res, Scratch: NewScratch()}
}

func TestVariableAssignReadAddCycle(t *testing.T) {
	res := newFakeResources()
	attrs := map[string]any{"var_name": "w"}
	v := tensor.FromF64(tensor.Shape{2}, []float64{1, 2})

	if _, err := Run("Variable", ctxWith(res, "r", attrs), nil); err == nil {
		t.Fatal("read before init should error")
	}
	out, err := Run("Assign", ctxWith(res, "a", attrs), []*tensor.Tensor{v})
	if err != nil || !out.Equal(v) {
		t.Fatalf("Assign: %v", err)
	}
	out, err = Run("AssignAdd", ctxWith(res, "aa", attrs), []*tensor.Tensor{v})
	if err != nil {
		t.Fatalf("AssignAdd: %v", err)
	}
	if out.F64()[0] != 2 || out.F64()[1] != 4 {
		t.Fatalf("AssignAdd result %v", out.F64())
	}
	out, err = Run("Variable", ctxWith(res, "r2", attrs), nil)
	if err != nil || out.F64()[1] != 4 {
		t.Fatalf("Variable read %v %v", out, err)
	}
}

func TestVariableMissingAttrOrResources(t *testing.T) {
	if _, err := Run("Variable", ctxWith(newFakeResources(), "n", nil), nil); err == nil {
		t.Fatal("missing var_name should error")
	}
	ctx := &Context{NodeName: "n", Attrs: map[string]any{"var_name": "w"}}
	if _, err := Run("Variable", ctx, nil); err == nil {
		t.Fatal("missing resources should error")
	}
}

func TestQueueEnqueueDequeueTuple(t *testing.T) {
	res := newFakeResources()
	attrs := map[string]any{"queue": "q0"}
	idx := tensor.ScalarI64(7)
	tile := tensor.FromF64(tensor.Shape{2}, []float64{1, 2})

	if _, err := Run("QueueEnqueue", ctxWith(res, "enq", attrs), []*tensor.Tensor{idx, tile}); err != nil {
		t.Fatal(err)
	}
	sz, err := Run("QueueSize", ctxWith(res, "sz", attrs), nil)
	if err != nil || sz.ScalarInt() != 1 {
		t.Fatalf("size = %v, %v", sz, err)
	}

	scratch := NewScratch()
	deqCtx := &Context{NodeName: "deq", Attrs: attrs, Resources: res, Scratch: scratch}
	first, err := Run("QueueDequeue", deqCtx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.ScalarInt() != 7 {
		t.Fatal("component 0 should be the index")
	}
	compCtx := &Context{
		NodeName: "comp", Attrs: map[string]any{"index": 1},
		InputNames: []string{"deq"}, Resources: res, Scratch: scratch,
	}
	second, err := Run("DequeueComponent", compCtx, []*tensor.Tensor{first})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Equal(tile) {
		t.Fatal("component 1 should be the tile")
	}
	// Out-of-range component.
	badCtx := &Context{
		NodeName: "comp2", Attrs: map[string]any{"index": 5},
		InputNames: []string{"deq"}, Resources: res, Scratch: scratch,
	}
	if _, err := Run("DequeueComponent", badCtx, []*tensor.Tensor{first}); err == nil {
		t.Fatal("component index out of range should error")
	}
}

func TestQueueClose(t *testing.T) {
	res := newFakeResources()
	attrs := map[string]any{"queue": "q1"}
	if _, err := Run("QueueClose", ctxWith(res, "c", attrs), nil); err != nil {
		t.Fatal(err)
	}
}
