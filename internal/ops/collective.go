package ops

import (
	"fmt"

	"tfhpc/internal/tensor"
)

func init() {
	// Collective ops are stateful (they synchronise with other ranks and
	// must never be pruned, cached or reordered across control deps) and
	// GPU-capable: the placer may pin them next to the compute they feed,
	// exactly as TensorFlow places Horovod's allreduce. They BLOCK until
	// peers issue the matching call.
	Register(&OpDef{Name: "AllReduce", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: allReduceKernel})
	Register(&OpDef{Name: "AllGather", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: allGatherKernel})
	Register(&OpDef{Name: "Broadcast", MinInputs: 0, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: broadcastKernel})
	Register(&OpDef{Name: "ReduceScatter", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: reduceScatterKernel})
	Register(&OpDef{Name: "AllGatherV", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: allGatherVKernel})
	Register(&OpDef{Name: "GatherV", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: gatherVKernel})
	Register(&OpDef{Name: "AllReduceFused", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: allReduceFusedKernel})
	Register(&OpDef{Name: "AllReduceStart", MinInputs: 1, MaxInputs: 1, GPUCapable: true, Stateful: true, Kernel: allReduceStartKernel})
	Register(&OpDef{Name: "AllReduceJoin", MinInputs: 0, MaxInputs: 0, GPUCapable: true, Stateful: true, Kernel: allReduceJoinKernel})
}

// collective resolves the node's group handle from the "group" attribute.
func (c *Context) collective() (CollectiveHandle, string, error) {
	name := c.StringAttr("group", "")
	if name == "" {
		return nil, "", fmt.Errorf("missing %q attribute", "group")
	}
	if c.Resources == nil {
		return nil, "", fmt.Errorf("no resource manager in this execution context")
	}
	h, err := c.Resources.Collective(name)
	return h, name, err
}

// collKey is the match key for one collective node: the "key" attribute, or
// the node name — identical across ranks when graphs are built symmetrically.
func (c *Context) collKey() string { return c.StringAttr("key", c.NodeName) }

// allReduceKernel sums (or max-reduces, attr "reduce") its input across all
// ranks of the group; attr "average" divides the sum by the group size,
// which is the data-parallel gradient-averaging convention.
func allReduceKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.AllReduce(ctx.collKey(), in[0], ctx.StringAttr("reduce", "sum"))
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return maybeAverage(ctx, h, name, out)
}

// maybeAverage divides an allreduced sum by the group size when the node
// carries the data-parallel gradient-averaging attribute.
func maybeAverage(ctx *Context, h CollectiveHandle, name string, out *tensor.Tensor) (*tensor.Tensor, error) {
	if !ctx.BoolAttr("average", false) {
		return out, nil
	}
	inv := 1.0 / float64(h.Size())
	switch out.DType() {
	case tensor.Float32:
		d := out.F32()
		for i := range d {
			d[i] *= float32(inv)
		}
	case tensor.Float64:
		d := out.F64()
		for i := range d {
			d[i] *= inv
		}
	default:
		return nil, fmt.Errorf("group %q: average needs a float tensor, got %v", name, out.DType())
	}
	return out, nil
}

// reduceScatterKernel reduces across ranks and keeps only this rank's
// segment of the result (flat rank-1) — half an allreduce, for consumers
// that shard the reduced value anyway.
func reduceScatterKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.ReduceScatter(ctx.collKey(), in[0], ctx.StringAttr("reduce", "sum"))
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return out, nil
}

// allGatherVKernel concatenates per-rank inputs of differing leading
// dimension along axis 0.
func allGatherVKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.AllGatherV(ctx.collKey(), in[0])
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return out, nil
}

// gatherVKernel is allGatherVKernel with one receiver, the rank named by
// attr "root" (default 0): root gets the concatenation, every other rank
// zero rows of the same trailing shape.
func gatherVKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.GatherV(ctx.collKey(), in[0], ctx.IntAttr("root", 0))
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return out, nil
}

// allReduceFusedKernel posts its input to the group's fusion buffer:
// independent fused nodes dispatched concurrently by the executor coalesce
// into one collective pass (Horovod tensor fusion). Attributes match
// AllReduce ("reduce", "average").
func allReduceFusedKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.AllReduceFused(ctx.collKey(), in[0], ctx.StringAttr("reduce", "sum"))
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return maybeAverage(ctx, h, name, out)
}

// allReduceStartKernel begins an asynchronous allreduce under the named
// handle (attr "handle", default the collective key) and returns its input
// unchanged, so downstream nodes may keep using the local value. The
// reduction proceeds in the background — across session Run boundaries —
// until an AllReduceJoin with the same handle claims it.
func allReduceStartKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	key := ctx.collKey()
	if err := h.StartAllReduce(ctx.StringAttr("handle", key), key, in[0], ctx.StringAttr("reduce", "sum")); err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return in[0], nil
}

// allReduceJoinKernel blocks on the named handle's in-flight allreduce and
// returns the reduced tensor ("average" supported as on AllReduce).
func allReduceJoinKernel(ctx *Context, _ []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.JoinAllReduce(ctx.StringAttr("handle", ctx.collKey()))
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return maybeAverage(ctx, h, name, out)
}

// allGatherKernel concatenates the per-rank inputs along the leading axis.
func allGatherKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	out, err := h.AllGather(ctx.collKey(), in[0])
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return out, nil
}

// broadcastKernel replicates the root rank's input (attr "root", default 0)
// to every rank; non-root ranks may omit the input.
func broadcastKernel(ctx *Context, in []*tensor.Tensor) (*tensor.Tensor, error) {
	h, name, err := ctx.collective()
	if err != nil {
		return nil, err
	}
	root := ctx.IntAttr("root", 0)
	var t *tensor.Tensor
	if len(in) > 0 {
		t = in[0]
	}
	if h.Rank() == root && t == nil {
		return nil, fmt.Errorf("group %q: broadcast root needs an input", name)
	}
	out, err := h.Broadcast(ctx.collKey(), t, root)
	if err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	return out, nil
}
