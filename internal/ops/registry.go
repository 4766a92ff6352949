// Package ops defines the operation registry and the CPU kernel
// implementations behind every graph node type: dense linear algebra
// (blocked parallel GEMM, matvec, fused vector ops), FFT, random generation,
// array manipulation, and the stateful variable/queue operations that the
// paper's data-driven applications are built from.
//
// Kernels are pure host-CPU implementations. On a simulated GPU device the
// same kernel computes the numbers while the session's cost model charges
// virtual time according to the hardware model — so results are always real
// and timings are always faithful to the modelled platform.
package ops

import (
	"fmt"
	"sync"

	"tfhpc/internal/tensor"
)

// VariableHandle is the access interface stateful variable kernels use; the
// session supplies an implementation backed by internal/vars.
type VariableHandle interface {
	Read() (*tensor.Tensor, error)
	Assign(*tensor.Tensor) error
	Adopt(*tensor.Tensor) error
	AssignAdd(*tensor.Tensor) error
}

// QueueHandle is the access interface queue kernels use; implementations
// may be local (internal/queue) or remote proxies (internal/cluster).
type QueueHandle interface {
	Enqueue(item []*tensor.Tensor) error
	Dequeue() ([]*tensor.Tensor, error)
	Close() error
	Size() int
}

// CollectiveHandle is the access interface collective kernels use: one
// rank's membership of a communication group (internal/collective provides
// it: one ring step under every ring collective, one allgather ring and a
// binomial-tree broadcast, in process or over rpc streams). key
// isolates concurrent collectives that share the group; kernels default it
// to the node name, which symmetric per-rank graphs give identical
// spellings. Beyond the synchronous trio, handles expose the v2 engine:
// ReduceScatter/AllGatherV/GatherV (sharded reductions and uneven gathers,
// to every rank or to one), AllReduceFused (posts ride the group's fusion
// buffer and coalesce into one pass), and StartAllReduce/JoinAllReduce
// (named async handles that may span session Run boundaries for
// double-buffered overlap).
type CollectiveHandle interface {
	Rank() int
	Size() int
	AllReduce(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error)
	AllGather(key string, t *tensor.Tensor) (*tensor.Tensor, error)
	Broadcast(key string, t *tensor.Tensor, root int) (*tensor.Tensor, error)
	ReduceScatter(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error)
	AllGatherV(key string, t *tensor.Tensor) (*tensor.Tensor, error)
	GatherV(key string, t *tensor.Tensor, root int) (*tensor.Tensor, error)
	AllReduceFused(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error)
	StartAllReduce(handle, key string, t *tensor.Tensor, op string) error
	JoinAllReduce(handle string) (*tensor.Tensor, error)
}

// Resources resolves named stateful objects for kernels. The session
// provides it, routing to local state or to remote tasks.
type Resources interface {
	Variable(name string) (VariableHandle, error)
	Queue(name string, capacity int) (QueueHandle, error)
	Collective(name string) (CollectiveHandle, error)
}

// Context carries everything a kernel may need beyond its input tensors.
type Context struct {
	// NodeName is the executing node's name.
	NodeName string
	// Attrs are the node's attributes.
	Attrs map[string]any
	// InputNames are the producing nodes' names, index-aligned with inputs.
	InputNames []string
	// Resources resolves variables and queues; nil in pure-functional runs.
	Resources Resources
	// Scratch is per-Run storage shared between nodes of one execution, used
	// by tuple-producing ops (queue dequeue) and their component readers.
	Scratch *Scratch
	// AdoptInput tells an Assign that its input dies at it, so the variable
	// may store the tensor itself instead of a copy.
	AdoptInput bool
}

// Scratch is threadsafe per-Run storage for tuple hand-off between nodes
// (executors may run independent nodes concurrently).
type Scratch struct {
	mu sync.Mutex
	m  map[string][]*tensor.Tensor
}

// NewScratch returns empty per-Run storage.
func NewScratch() *Scratch {
	return &Scratch{m: make(map[string][]*tensor.Tensor)}
}

// Set records a tuple under the producing node's name.
func (s *Scratch) Set(node string, tuple []*tensor.Tensor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[node] = tuple
}

// Get fetches a tuple recorded by Set.
func (s *Scratch) Get(node string) ([]*tensor.Tensor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[node]
	return t, ok
}

// IntAttr fetches an integer attribute with a default.
func (c *Context) IntAttr(key string, def int) int {
	switch v := c.Attrs[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	}
	return def
}

// FloatAttr fetches a float attribute with a default.
func (c *Context) FloatAttr(key string, def float64) float64 {
	if v, ok := c.Attrs[key].(float64); ok {
		return v
	}
	return def
}

// BoolAttr fetches a boolean attribute with a default.
func (c *Context) BoolAttr(key string, def bool) bool {
	if v, ok := c.Attrs[key].(bool); ok {
		return v
	}
	return def
}

// StringAttr fetches a string attribute with a default.
func (c *Context) StringAttr(key, def string) string {
	if v, ok := c.Attrs[key].(string); ok {
		return v
	}
	return def
}

// DTypeAttr fetches a dtype attribute with a default.
func (c *Context) DTypeAttr(key string, def tensor.DType) tensor.DType {
	if v, ok := c.Attrs[key].(tensor.DType); ok {
		return v
	}
	return def
}

// ShapeAttr fetches a shape attribute (nil if absent).
func (c *Context) ShapeAttr(key string) tensor.Shape {
	if v, ok := c.Attrs[key].(tensor.Shape); ok {
		return v
	}
	return nil
}

// Kernel computes a node's output from its inputs.
type Kernel func(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error)

// OpDef describes a registered operation.
type OpDef struct {
	Name      string
	MinInputs int
	MaxInputs int // -1 = variadic
	// GPUCapable marks ops the placer may pin to GPU devices (the paper's
	// simple placement: "if an operation supports both CPU and GPU
	// execution, GPU devices will be chosen").
	GPUCapable bool
	// Stateful ops touch variables/queues and are never pruned or cached.
	Stateful bool
	// FreshOutput marks ops whose kernel returns a newly allocated tensor
	// and keeps no reference to it or to its inputs, so the value belongs
	// to the Run that made it. The executor lets an Assign store such a
	// value without a copy when nothing else can keep or change it.
	FreshOutput bool
	Kernel      Kernel
}

var registry = map[string]*OpDef{}

// Register adds an op definition; panics on duplicates (registration is an
// init-time activity).
func Register(def *OpDef) {
	if def.Name == "" || def.Kernel == nil {
		panic("ops: Register needs name and kernel")
	}
	if _, dup := registry[def.Name]; dup {
		panic(fmt.Sprintf("ops: duplicate op %q", def.Name))
	}
	registry[def.Name] = def
}

// Lookup finds an op definition.
func Lookup(name string) (*OpDef, error) {
	def, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ops: unknown op %q", name)
	}
	return def, nil
}

// Names returns all registered op names (unsorted).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// checkInputs validates arity before a kernel runs.
func checkInputs(def *OpDef, n int) error {
	if n < def.MinInputs {
		return fmt.Errorf("ops: %s needs at least %d inputs, got %d", def.Name, def.MinInputs, n)
	}
	if def.MaxInputs >= 0 && n > def.MaxInputs {
		return fmt.Errorf("ops: %s accepts at most %d inputs, got %d", def.Name, def.MaxInputs, n)
	}
	return nil
}

// Run executes the named op with arity checking — the single entry point
// used by executors.
func Run(name string, ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	def, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := checkInputs(def, len(in)); err != nil {
		return nil, err
	}
	out, err := def.Kernel(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("ops: %s (node %q): %w", name, ctx.NodeName, err)
	}
	return out, nil
}
