// Package vars implements mutable variables — the tf.Variable analogue —
// and the store that hosts them on a task (the parameter-server role).
// Variables keep state across Session.Run calls, which is how the CG solver
// carries vectors between iterations without re-feeding them (avoiding the
// 2 GiB unrolled-graph problem the paper describes).
package vars

import (
	"fmt"
	"sort"
	"sync"

	"tfhpc/internal/tensor"
)

// Variable is one named mutable tensor with its own lock.
//
// Ownership: Assign stores a copy, so the caller keeps its tensor. Adopt
// stores the tensor itself; the caller hands it over and must not write it
// again, though whoever already holds it may go on reading it. Read hands
// out the stored tensor, which callers must not write. AssignAdd writes
// into the stored tensor, except that it first copies an adopted one, so a
// tensor given to Adopt never changes.
type Variable struct {
	name    string
	mu      sync.Mutex
	val     *tensor.Tensor
	adopted bool // val came from Adopt and is not yet the variable's own copy
}

// Name returns the variable's name.
func (v *Variable) Name() string { return v.name }

// Initialized reports whether the variable holds a value.
func (v *Variable) Initialized() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.val != nil
}

// Read returns the current value (shared, callers must not mutate), or an
// error if the variable is uninitialized.
func (v *Variable) Read() (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		return nil, fmt.Errorf("vars: %q used before initialization", v.name)
	}
	return v.val, nil
}

// Assign replaces the value with a copy of t. The first assignment fixes
// dtype and shape; later assignments must match them (as TF enforces).
func (v *Variable) Assign(t *tensor.Tensor) error { return v.store(t, false) }

// Adopt replaces the value with t itself, under the same rules as Assign
// and with no copy; see the ownership note on Variable.
func (v *Variable) Adopt(t *tensor.Tensor) error { return v.store(t, true) }

func (v *Variable) store(t *tensor.Tensor, adopt bool) error {
	if t == nil {
		return fmt.Errorf("vars: assigning nil to %q", v.name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val != nil {
		if v.val.DType() != t.DType() {
			return fmt.Errorf("vars: %q dtype change %v -> %v", v.name, v.val.DType(), t.DType())
		}
		if !v.val.Shape().Equal(t.Shape()) {
			return fmt.Errorf("vars: %q shape change %v -> %v", v.name, v.val.Shape(), t.Shape())
		}
	}
	if !adopt {
		t = t.Clone()
	}
	v.val, v.adopted = t, adopt
	return nil
}

// AssignAdd accumulates t into the value in place (into a copy of an
// adopted value).
func (v *Variable) AssignAdd(t *tensor.Tensor) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.val == nil {
		return fmt.Errorf("vars: %q used before initialization", v.name)
	}
	if v.val.DType() != t.DType() || !v.val.Shape().Equal(t.Shape()) {
		return fmt.Errorf("vars: %q AssignAdd mismatch: have %v%v, got %v%v",
			v.name, v.val.DType(), v.val.Shape(), t.DType(), t.Shape())
	}
	if v.adopted {
		v.val, v.adopted = v.val.Clone(), false
	}
	switch v.val.DType() {
	case tensor.Float32:
		a, b := v.val.F32(), t.F32()
		for i := range a {
			a[i] += b[i]
		}
	case tensor.Float64:
		a, b := v.val.F64(), t.F64()
		for i := range a {
			a[i] += b[i]
		}
	case tensor.Complex128:
		a, b := v.val.C128(), t.C128()
		for i := range a {
			a[i] += b[i]
		}
	case tensor.Int64:
		a, b := v.val.I64(), t.I64()
		for i := range a {
			a[i] += b[i]
		}
	default:
		return fmt.Errorf("vars: %q AssignAdd unsupported dtype %v", v.name, v.val.DType())
	}
	return nil
}

// Store is a threadsafe collection of variables, one per task.
type Store struct {
	mu   sync.Mutex
	vars map[string]*Variable
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{vars: make(map[string]*Variable)}
}

// Get returns the named variable, creating an uninitialized one on first
// use (matching TF's deferred variable creation).
func (s *Store) Get(name string) *Variable {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vars[name]
	if !ok {
		v = &Variable{name: name}
		s.vars[name] = v
	}
	return v
}

// Names returns the sorted names of all variables that hold values.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, v := range s.vars {
		if v.Initialized() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a deep copy of every initialized variable, for
// checkpointing.
func (s *Store) Snapshot() map[string]*tensor.Tensor {
	s.mu.Lock()
	vs := make([]*Variable, 0, len(s.vars))
	for _, v := range s.vars {
		vs = append(vs, v)
	}
	s.mu.Unlock()
	out := make(map[string]*tensor.Tensor)
	for _, v := range vs {
		if t, err := v.Read(); err == nil {
			out[v.name] = t.Clone()
		}
	}
	return out
}

// Restore assigns every entry of the snapshot into the store, creating
// variables as needed.
func (s *Store) Restore(snap map[string]*tensor.Tensor) error {
	for name, t := range snap {
		if err := s.Get(name).Assign(t); err != nil {
			return err
		}
	}
	return nil
}
