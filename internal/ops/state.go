package ops

import (
	"fmt"

	"tfhpc/internal/tensor"
)

func init() {
	Register(&OpDef{Name: "Variable", MinInputs: 0, MaxInputs: 0, Stateful: true, Kernel: variableKernel})
	Register(&OpDef{Name: "Assign", MinInputs: 1, MaxInputs: 1, Stateful: true, Kernel: assignKernel})
	Register(&OpDef{Name: "AssignAdd", MinInputs: 1, MaxInputs: 1, Stateful: true, Kernel: assignAddKernel})
	Register(&OpDef{Name: "QueueEnqueue", MinInputs: 1, MaxInputs: -1, Stateful: true, Kernel: enqueueKernel})
	Register(&OpDef{Name: "QueueDequeue", MinInputs: 0, MaxInputs: 0, Stateful: true, Kernel: dequeueKernel})
	Register(&OpDef{Name: "DequeueComponent", MinInputs: 1, MaxInputs: 1, Stateful: true, Kernel: dequeueComponentKernel})
	Register(&OpDef{Name: "QueueClose", MinInputs: 0, MaxInputs: 0, Stateful: true, Kernel: queueCloseKernel})
	Register(&OpDef{Name: "QueueSize", MinInputs: 0, MaxInputs: 0, Stateful: true, Kernel: queueSizeKernel})
}

func (c *Context) variable() (VariableHandle, string, error) {
	name := c.StringAttr("var_name", "")
	if name == "" {
		return nil, "", fmt.Errorf("missing %q attribute", "var_name")
	}
	if c.Resources == nil {
		return nil, "", fmt.Errorf("no resource manager in this execution context")
	}
	v, err := c.Resources.Variable(name)
	return v, name, err
}

func (c *Context) queue() (QueueHandle, string, error) {
	name := c.StringAttr("queue", "")
	if name == "" {
		return nil, "", fmt.Errorf("missing %q attribute", "queue")
	}
	if c.Resources == nil {
		return nil, "", fmt.Errorf("no resource manager in this execution context")
	}
	q, err := c.Resources.Queue(name, c.IntAttr("capacity", 0))
	return q, name, err
}

// variableKernel reads the variable's current value (tf.Variable read).
func variableKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	v, name, err := ctx.variable()
	if err != nil {
		return nil, err
	}
	t, err := v.Read()
	if err != nil {
		return nil, fmt.Errorf("variable %q: %w", name, err)
	}
	return t, nil
}

// assignKernel overwrites the variable and yields the new value. It stores
// a copy unless the executor says the input dies here.
func assignKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v, name, err := ctx.variable()
	if err != nil {
		return nil, err
	}
	store := v.Assign
	if ctx.AdoptInput {
		store = v.Adopt
	}
	if err := store(in[0]); err != nil {
		return nil, fmt.Errorf("variable %q: %w", name, err)
	}
	return in[0], nil
}

// assignAddKernel accumulates into the variable and yields the new value —
// the operation at the centre of the STREAM benchmark.
func assignAddKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	v, name, err := ctx.variable()
	if err != nil {
		return nil, err
	}
	if err := v.AssignAdd(in[0]); err != nil {
		return nil, fmt.Errorf("variable %q: %w", name, err)
	}
	t, err := v.Read()
	if err != nil {
		return nil, fmt.Errorf("variable %q: %w", name, err)
	}
	return t, nil
}

// enqueueKernel pushes its input tuple into the named queue (blocking while
// full) and yields a dummy scalar.
func enqueueKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	q, name, err := ctx.queue()
	if err != nil {
		return nil, err
	}
	if err := q.Enqueue(in); err != nil {
		return nil, fmt.Errorf("queue %q: %w", name, err)
	}
	return tensor.ScalarI64(int64(len(in))), nil
}

// dequeueKernel pops one tuple (blocking while empty), stores the whole
// tuple in per-Run scratch for DequeueComponent readers, and yields
// component 0.
func dequeueKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	q, name, err := ctx.queue()
	if err != nil {
		return nil, err
	}
	item, err := q.Dequeue()
	if err != nil {
		return nil, fmt.Errorf("queue %q: %w", name, err)
	}
	if len(item) == 0 {
		return nil, fmt.Errorf("queue %q: empty tuple", name)
	}
	if ctx.Scratch != nil {
		ctx.Scratch.Set(ctx.NodeName, item)
	}
	return item[0], nil
}

// dequeueComponentKernel reads tuple component "index" of its input
// QueueDequeue node from scratch.
func dequeueComponentKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	idx := ctx.IntAttr("index", 0)
	if len(ctx.InputNames) != 1 {
		return nil, fmt.Errorf("DequeueComponent: need the dequeue node as sole input")
	}
	if ctx.Scratch == nil {
		return nil, fmt.Errorf("DequeueComponent: no scratch space")
	}
	tuple, ok := ctx.Scratch.Get(ctx.InputNames[0])
	if !ok {
		return nil, fmt.Errorf("DequeueComponent: input %q did not record a tuple", ctx.InputNames[0])
	}
	if idx < 0 || idx >= len(tuple) {
		return nil, fmt.Errorf("DequeueComponent: index %d out of %d components", idx, len(tuple))
	}
	return tuple[idx], nil
}

func queueCloseKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	q, name, err := ctx.queue()
	if err != nil {
		return nil, err
	}
	if err := q.Close(); err != nil {
		return nil, fmt.Errorf("queue %q: %w", name, err)
	}
	return tensor.ScalarI64(0), nil
}

func queueSizeKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	q, _, err := ctx.queue()
	if err != nil {
		return nil, err
	}
	return tensor.ScalarI64(int64(q.Size())), nil
}
