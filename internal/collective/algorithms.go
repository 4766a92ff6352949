package collective

import (
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// Algorithm names accepted by Options.Algorithm and AllReduceAlg.
const (
	AlgoAuto     = "auto"     // pick per call by bytes/p against SwitchBytes
	AlgoRing     = "ring"     // bandwidth-optimal reduce-scatter + allgather
	AlgoDoubling = "doubling" // recursive doubling, latency-optimal log2(p) steps
)

// DefaultSwitchBytes is the picker threshold when Options leaves it 0: calls
// whose per-rank payload (bytes/p) is strictly below it run recursive
// doubling, the rest run the ring. The value is data-derived — 16 KiB/rank is
// where the ring caught up with doubling on the reference container, with
// doubling winning ~1.4–3× below it. Re-measure either side of it with
// BenchmarkDoublingAllReduceSmall and BenchmarkRingAllReduce, or end to end
// with the benchmark's allreduce workload, whose two regimes (1 KiB calls,
// 2 MiB calls) sit one on each side of the threshold.
const DefaultSwitchBytes = 16 << 10

// pickAlgorithm is the per-call picker: explicit Options.Algorithm wins,
// otherwise key on bytes/p — the same quantity Horovod's fusion threshold
// uses — because the ring's per-step message is n/p while its step count
// grows with p, so small per-rank payloads are exactly where the ring's
// 2(p−1) latency terms dominate and doubling's log2(p) steps win. The
// comparison is strict: SwitchBytes records the measured crossover, i.e.
// the smallest per-rank payload at which the ring is already at least as
// fast, so the boundary payload itself belongs to the ring.
func (g *Group) pickAlgorithm(bytes int64) string {
	switch g.opts.Algorithm {
	case "", AlgoAuto:
	default:
		return g.opts.Algorithm
	}
	if bytes/int64(g.Size()) < int64(g.opts.SwitchBytes) {
		return AlgoDoubling
	}
	return AlgoRing
}

// AllReduceAlg is AllReduce with an explicit algorithm (benchmarks, tests);
// alg "" or "auto" defers to the picker.
func (g *Group) AllReduceAlg(key string, t *tensor.Tensor, op, alg string) (*tensor.Tensor, error) {
	if alg == "" || alg == AlgoAuto {
		alg = g.pickAlgorithm(t.ByteSize())
	}
	seq := g.nextSeq(key)
	return g.allReduceSeq(key, seq, t, op, alg)
}

// allReduceSeq dispatches one already-sequenced allreduce. Separating seq
// reservation from execution lets AllReduceAsync fix the cross-rank issue
// order at call time even though the collective itself runs on a goroutine.
//
// Every completed pass updates the per-algorithm registry handles, and under
// tracing each pass is one span per rank, stitched across ranks by flow
// events whose ids every rank derives from (key, seq, rank) — rank r's
// outgoing arrow terminates in its ring successor's span, so the p per-rank
// (per-process) spans render as one connected allreduce in Perfetto.
func (g *Group) allReduceSeq(key string, seq uint64, t *tensor.Tensor, op, alg string) (*tensor.Tensor, error) {
	start := time.Now()
	span := telemetry.StartRoot("collective_allreduce")
	if span != nil {
		span.Arg("algo", alg).Arg("key", key).Arg("bytes", strconv.FormatInt(t.ByteSize(), 10))
		if g.Size() > 1 {
			span.FlowOut(telemetry.FlowID(telemetry.HashString(key), seq, uint64(g.Rank())))
		}
	}
	out, err := g.allReduceDispatch(key, seq, t, op, alg, span)
	if err == nil {
		if span != nil && g.Size() > 1 {
			prev := (g.Rank() - 1 + g.Size()) % g.Size()
			span.FlowIn(telemetry.FlowID(telemetry.HashString(key), seq, uint64(prev)))
		}
		if m := mAllReduce[alg]; m != nil {
			m.ops.Inc()
			m.bytes.Add(t.ByteSize())
			m.secs.ObserveSince(start)
		}
	}
	span.End()
	return out, err
}

func (g *Group) allReduceDispatch(key string, seq uint64, t *tensor.Tensor, op, alg string, span *telemetry.Span) (*tensor.Tensor, error) {
	if alg != AlgoRing && alg != AlgoDoubling {
		return nil, fmt.Errorf("collective: unknown algorithm %q (want auto|ring|doubling)", alg)
	}
	combine, err := combinerFor(t.DType(), op)
	if err != nil {
		return nil, err
	}
	if g.Size() == 1 {
		return t.Clone(), nil
	}
	if alg == AlgoRing {
		return ringAllReduce(g, key, seq, t, combine, span)
	}
	return doublingAllReduce(g, key, seq, t, combine)
}

// foldedRank maps a doubling-phase virtual rank back to its physical rank
// when p is not a power of two: the first 2·rem physical ranks fold into
// rem virtual ranks (the odd one of each pair participates), the rest shift
// down by rem.
func foldedRank(virtual, rem int) int {
	if virtual < rem {
		return 2*virtual + 1
	}
	return virtual + rem
}

// doublingAllReduce is the latency-optimal allreduce: log2(p) exchange
// steps, each pairing ranks across a doubling mask and combining full
// vectors. Non-power-of-two groups fold the first p−2^⌊log2 p⌋ rank pairs
// into single virtual ranks before the butterfly and unfold afterwards.
//
// Unlike the ring, the combination tree is identical for every element and
// every rank — it depends only on p — so with a commutative element op
// (sum, max are commutative in IEEE; only associativity fails) all ranks
// produce bit-identical results, and a fused (packed) payload reduces each
// element through exactly the same tree as an unfused one. The fusion
// buffer's fused-equals-unfused guarantee rests on this property.
func doublingAllReduce(g *Group, key string, seq uint64, in *tensor.Tensor, combine combiner) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	out := in.Clone()
	n := out.NumElements()

	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2

	// Fold: pairs (2i, 2i+1) for i < rem merge onto the odd rank; the even
	// rank sits out the butterfly and receives the finished result at the
	// end.
	virtual := -1
	switch {
	case r < 2*rem && r%2 == 0:
		if err := g.tr.Send(r+1, key, tag(seq, phaseDouble, 0, 0), out); err != nil {
			return nil, g.fatal(err)
		}
		msg, err := g.tr.Recv(r+1, key, tag(seq, phaseDouble, 0, 1))
		if err != nil {
			return nil, g.fatal(err)
		}
		if err := checkChunk(key, r+1, msg, in.DType(), n); err != nil {
			return nil, g.fatal(err)
		}
		_ = out.CopyFrom(msg) // checked above: same dtype and length
		tensor.Recycle(msg)
		return out, nil
	case r < 2*rem:
		msg, err := g.tr.Recv(r-1, key, tag(seq, phaseDouble, 0, 0))
		if err != nil {
			return nil, g.fatal(err)
		}
		if err := checkChunk(key, r-1, msg, in.DType(), n); err != nil {
			return nil, g.fatal(err)
		}
		// Canonical operand order (lower physical rank first) keeps the
		// tree deterministic even for non-commutative corner cases (NaN
		// payload propagation follows the first operand on most targets).
		combine(out, msg, 0, n, out)
		tensor.Recycle(msg)
		virtual = r / 2
	default:
		virtual = r - rem
	}

	for mask, step := 1, 1; mask < pow2; mask, step = mask<<1, step+1 {
		partner := foldedRank(virtual^mask, rem)
		// Send completes before the matching Recv+combine mutates out
		// (local edges clone, stream edges serialise), so no defensive
		// copy is needed.
		if err := g.tr.Send(partner, key, tag(seq, phaseDouble, step, 0), out); err != nil {
			return nil, g.fatal(err)
		}
		msg, err := g.tr.Recv(partner, key, tag(seq, phaseDouble, step, 0))
		if err != nil {
			return nil, g.fatal(err)
		}
		if err := checkChunk(key, partner, msg, in.DType(), n); err != nil {
			return nil, g.fatal(err)
		}
		if partner < r {
			combine(out, msg, 0, n, out)
		} else {
			combine(out, out, 0, n, msg)
		}
		tensor.Recycle(msg)
	}

	// Unfold: hand the finished vector back to the folded even ranks.
	if r < 2*rem && r%2 == 1 {
		if err := g.tr.Send(r-1, key, tag(seq, phaseDouble, 0, 1), out); err != nil {
			return nil, g.fatal(err)
		}
	}
	return out, nil
}

// checkChunk fails a received message that is not n elements of dt.
func checkChunk(key string, from int, msg *tensor.Tensor, dt tensor.DType, n int) error {
	if msg.DType() != dt || msg.NumElements() != n {
		return fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
			key, from, msg.DType(), msg.Shape(), n, dt)
	}
	return nil
}

// ringPass runs the p−1 steps of one ring pass over the segments seg(0..p−1)
// and is the only place a ring sender starts. At each step rank r sends
// segment (r+shift−step) mod p to the next rank — read from first at step 0,
// from rest after — in chunks on a goroutine, so chunk k is in flight while
// chunk k−1 is consumed, and receives the segment before it from the
// previous rank, checking each chunk's dtype and length and handing it to
// recv with the elements [lo, hi) it covers. The segments of one step are
// disjoint, so there is no aliasing. Each step joins its sender before
// surfacing any error, and any error is fatal to the group.
func (g *Group) ringPass(key string, seq uint64, phase, shift int, seg func(s int) (lo, hi int),
	first, rest *tensor.Tensor, recv func(lo, hi int, msg *tensor.Tensor)) error {
	p, r := g.Size(), g.Rank()
	next, prev := (r+1)%p, (r-1+p)%p
	dt := first.DType()
	chunk := g.chunkElems(dt)
	for step := 0; step < p-1; step++ {
		s := ((r+shift-step)%p + p) % p
		sLo, sHi := seg(s)
		rLo, rHi := seg((s - 1 + p) % p)
		src := rest
		if step == 0 {
			src = first
		}
		errc := make(chan error, 1)
		go func() {
			for k, off := 0, sLo; off < sHi; k, off = k+1, off+chunk {
				// A view, not a copy: Send consumes the payload before
				// returning (local edges copy, stream edges serialise), and
				// this segment is not written again until after the step's
				// receive completes.
				if err := g.tr.Send(next, key, tag(seq, phase, step, k), src.Flat(off, min(off+chunk, sHi))); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()

		var err error
		for k, off := 0, rLo; off < rHi; k, off = k+1, off+chunk {
			end := min(off+chunk, rHi)
			var msg *tensor.Tensor
			if msg, err = g.tr.Recv(prev, key, tag(seq, phase, step, k)); err != nil {
				break
			}
			if err = checkChunk(key, prev, msg, dt, end-off); err != nil {
				break
			}
			recv(off, end, msg)
			tensor.Recycle(msg)
		}
		if serr := <-errc; serr != nil {
			err = serr
		}
		if err != nil {
			return g.fatal(err)
		}
	}
	return nil
}

// ringAllReduce is the bandwidth-optimal allreduce: a reduce-scatter pass in
// which rank r sends segment r−step and receives r−step−1, leaving it the
// fully reduced segment r+1, then an allgather pass that circulates the
// finished segments, rank r sending r+1−step.
func ringAllReduce(g *Group, key string, seq uint64, in *tensor.Tensor, combine combiner, span *telemetry.Span) (*tensor.Tensor, error) {
	n, p := in.NumElements(), g.Size()
	out := tensor.New(in.DType(), in.Shape()...)
	seg := func(s int) (int, int) { return SegBounds(n, p, s) }

	// The first reduce-scatter step ships the raw input segment; every later
	// send ships a segment this rank finished writing in an earlier step, so
	// the output is written exactly once per segment per phase and the input
	// is never cloned. Each segment is received once per phase, so the first
	// touch fuses: out = in ⊕ incoming.
	phaseSpan := span.Child("reduce_scatter")
	err := g.ringPass(key, seq, phaseReduceScatter, 0, seg, in, out, func(lo, hi int, msg *tensor.Tensor) {
		combine(out, in, lo, hi, msg)
	})
	phaseSpan.End()
	if err != nil {
		return nil, err
	}
	phaseSpan = span.Child("allgather")
	err = g.ringPass(key, seq, phaseAllGather, 1, seg, out, out, func(lo, hi int, msg *tensor.Tensor) {
		_ = out.Flat(lo, hi).CopyFrom(msg) // ringPass checked dtype and length
	})
	phaseSpan.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceScatter combines equal-shaped tensors element-wise across all ranks
// and leaves rank r holding segment r of the result (SegBounds split, MPI
// convention) as a flat rank-1 tensor — the first half of the ring
// allreduce at half the traffic, for consumers that shard the reduced
// value anyway. Pair with AllGatherV to reassemble the full tensor.
func (g *Group) ReduceScatter(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	combine, err := combinerFor(t.DType(), op)
	if err != nil {
		return nil, err
	}
	p, r, n := g.Size(), g.Rank(), t.NumElements()
	if p == 1 {
		return t.Flat(0, n).Clone(), nil
	}
	seq := g.nextSeq(key)
	// scratch holds partially reduced segments in transit; only segment r
	// survives into the returned tensor. Rank r relays segment r−1−step and
	// receives r−2−step, so the last segment it receives is r itself, fully
	// reduced.
	scratch := tensor.New(t.DType(), n)
	seg := func(s int) (int, int) { return SegBounds(n, p, s) }
	if err := g.ringPass(key, seq, phaseRS, -1, seg, t, scratch, func(lo, hi int, msg *tensor.Tensor) {
		combine(scratch, t, lo, hi, msg)
	}); err != nil {
		return nil, err
	}
	lo, hi := SegBounds(n, p, r)
	return scratch.Flat(lo, hi).Clone(), nil
}

// AllGather concatenates equal-shaped per-rank tensors along axis 0 —
// rank-0 inputs produce a [p] vector, rank-k inputs a tensor whose first
// dimension is p times larger — bit for bit what AllGatherV gives on the
// same shards. It is AllGatherV's ring over the equal offsets s·m, without
// the size-exchange round: every rank already knows every shard's size.
func (g *Group) AllGather(key string, t *tensor.Tensor) (*tensor.Tensor, error) {
	p, m := g.Size(), t.NumElements()
	shape := tensor.Shape{p}
	if t.Rank() > 0 {
		shape = t.Shape().Clone()
		shape[0] *= p
	}
	return g.gatherRing(key, g.nextSeq(key), t, shape, func(s int) (int, int) { return s * m, (s + 1) * m })
}

// AllGatherV concatenates per-rank tensors of differing leading dimension
// along axis 0 (rank-0 inputs count as one row of one element). Trailing
// dimensions and dtype must agree across ranks; a size-exchange round
// precedes the data ring, so callers never pre-negotiate shard sizes —
// exactly what uneven SegBounds shards and per-worker tile sets need.
func (g *Group) AllGatherV(key string, t *tensor.Tensor) (*tensor.Tensor, error) {
	seq := g.nextSeq(key)
	shape, offs, err := exchangeShards(g, key, seq, t, -1)
	if err != nil {
		return nil, err
	}
	return g.gatherRing(key, seq, t, shape, func(s int) (int, int) { return offs[s], offs[s+1] })
}

// gatherRing is the allgather ring: this rank's elements land at seg(r) of
// a fresh tensor of the given shape, and every other rank's arrive over p−1
// steps, rank r sending segment r−step.
func (g *Group) gatherRing(key string, seq uint64, in *tensor.Tensor, shape tensor.Shape, seg func(s int) (lo, hi int)) (*tensor.Tensor, error) {
	out := tensor.New(in.DType(), shape...)
	_ = out.Flat(seg(g.Rank())).CopyFrom(in) // this rank's segment spans in
	if err := g.ringPass(key, seq, phaseAllGather, 0, seg, out, out, func(lo, hi int, msg *tensor.Tensor) {
		_ = out.Flat(lo, hi).CopyFrom(msg) // ringPass checked dtype and length
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// GatherV is AllGatherV with a single receiver: root gets the rank-ordered
// concatenation along axis 0, bit-identical to AllGatherV's, and every
// other rank gets a zero-row tensor of the same trailing shape. It is for
// results consumed in one place — the FFT's merge — where an allgather
// would build the whole result on every rank to use one copy. The same
// size-exchange round opens it; then each other rank sends its rows
// straight to root, chunked like the ring.
func (g *Group) GatherV(key string, t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	if root < 0 || root >= g.Size() {
		return nil, fmt.Errorf("collective: gatherv root %d out of %d", root, g.Size())
	}
	r := g.Rank()
	seq := g.nextSeq(key)
	shape, offs, err := exchangeShards(g, key, seq, t, root)
	if err != nil {
		return nil, err
	}
	chunk := g.chunkElems(t.DType())
	if r != root {
		n := t.NumElements()
		for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
			if err := g.tr.Send(root, key, tag(seq, phaseGather, 0, k), t.Flat(off, min(off+chunk, n))); err != nil {
				return nil, g.fatal(err)
			}
		}
		shape[0] = 0
		return tensor.New(t.DType(), shape...), nil
	}

	out := tensor.New(t.DType(), shape...)
	_ = out.Flat(offs[r], offs[r+1]).CopyFrom(t) // root's span is t's elements
	for s := 0; s < g.Size(); s++ {
		if s == root {
			continue
		}
		for k, off := 0, offs[s]; off < offs[s+1]; k, off = k+1, off+chunk {
			end := min(off+chunk, offs[s+1])
			msg, err := g.tr.Recv(s, key, tag(seq, phaseGather, 0, k))
			if err != nil {
				return nil, g.fatal(err)
			}
			if err := checkChunk(key, s, msg, t.DType(), end-off); err != nil {
				return nil, g.fatal(err)
			}
			_ = out.Flat(off, end).CopyFrom(msg) // checked above
			tensor.Recycle(msg)
		}
	}
	return out, nil
}

// exchangeShards is the size-exchange round AllGatherV and GatherV open
// with. Each rank's header — its row count, elements per row and the root
// it names (-1 for AllGatherV) — is relayed unchanged around the ring, so
// after p−1 steps every rank holds all p headers and checks them all
// (shardLayout). The round always runs to the end before any check, so
// every rank judges the same headers: mismatched trailing dims, or roots,
// fail every rank, none is left waiting on a peer that gave up, and the
// group stays usable. It returns the concatenation's shape and each rank's
// place in it: rank s's elements are [offs[s], offs[s+1]).
func exchangeShards(g *Group, key string, seq uint64, in *tensor.Tensor, root int) (shape tensor.Shape, offs []int, err error) {
	p, r := g.Size(), g.Rank()
	lead, rowElems := 1, in.NumElements()
	if in.Rank() >= 1 {
		lead, rowElems = in.Shape()[0], in.Shape()[1:].NumElements()
	}
	hdrs := make([][3]int64, p)
	hdrs[r] = [3]int64{int64(lead), int64(rowElems), int64(root)}
	next, prev := (r+1)%p, (r-1+p)%p
	for step := 0; step < p-1; step++ {
		h := hdrs[(r-step+p)%p]
		if err := g.tr.Send(next, key, tag(seq, phaseGatherV, step, 0), tensor.FromI64(tensor.Shape{3}, h[:])); err != nil {
			return nil, nil, g.fatal(err)
		}
		msg, err := g.tr.Recv(prev, key, tag(seq, phaseGatherV, step, 0))
		if err != nil {
			return nil, nil, g.fatal(err)
		}
		if msg.DType() != tensor.Int64 || msg.NumElements() != 3 {
			return nil, nil, g.fatal(fmt.Errorf("collective: %q: malformed gatherv size header", key))
		}
		copy(hdrs[(r-step-1+p)%p][:], msg.I64())
		tensor.Recycle(msg)
	}

	rows, offs, err := shardLayout(hdrs, r, rowElems, root, in.DType())
	if err != nil {
		return nil, nil, fmt.Errorf("collective: %q: %w", key, err)
	}
	shape = tensor.Shape{rows}
	if in.Rank() >= 1 {
		shape = append(shape, in.Shape()[1:]...)
	}
	return shape, offs, nil
}

// shardLayout checks a gather's size headers — each rank's row count,
// elements per row and named root — against this rank's (rank r) rowElems
// and root, before anything is sized from the counts peers sent: the
// concatenation must fit in one encodable tensor of dt. It returns the total
// row count and each rank's element offsets.
func shardLayout(hdrs [][3]int64, r, rowElems, root int, dt tensor.DType) (rows int, offs []int, err error) {
	maxRows := tensor.MaxEncodedBytes / int64(dt.Size())
	if rowElems > 0 {
		maxRows /= int64(rowElems)
	}
	offs = make([]int, len(hdrs)+1)
	var total int64
	for s, h := range hdrs {
		switch {
		case h[1] != int64(rowElems):
			return 0, nil, fmt.Errorf("rank %d rows have %d elements, rank %d has %d (trailing dims must match)", s, h[1], r, rowElems)
		case h[2] != int64(root):
			return 0, nil, fmt.Errorf("rank %d gathers to %d, rank %d to %d", s, h[2], r, root)
		case h[0] < 0:
			return 0, nil, fmt.Errorf("negative shard size from rank %d", s)
		case h[0] > maxRows-total:
			return 0, nil, fmt.Errorf("rank %d's %d rows of %d %v elements take the gather past the %d-byte bound", s, h[0], rowElems, dt, tensor.MaxEncodedBytes)
		}
		offs[s] = int(total) * rowElems
		total += h[0]
	}
	offs[len(hdrs)] = int(total) * rowElems
	return int(total), offs, nil
}

// Broadcast replicates root's tensor to every rank down a binomial tree:
// depth ⌈log2 p⌉, so small broadcasts pay O(log p) latency, and chunks are
// forwarded to every child as soon as they arrive, so large payloads still
// pipeline down the levels. Non-root ranks may pass t == nil; the broadcast
// carries dtype and shape in a header ahead of the chunks.
func (g *Group) Broadcast(key string, t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("collective: broadcast root %d out of %d", root, p)
	}
	if r == root && t == nil {
		return nil, fmt.Errorf("collective: broadcast root needs a tensor")
	}
	if p == 1 {
		return t.Clone(), nil
	}
	seq := g.nextSeq(key)
	// In root-relative ranks the parent is rel with its lowest set bit
	// cleared, and the children are rel+m for every mask m below that bit
	// (below the top for the root), highest first, so the deepest subtree
	// starts earliest.
	rel := (r - root + p) % p
	low := rel & -rel
	if rel == 0 {
		low = 1 << bits.Len(uint(p-1))
	}
	parent := (rel - low + root) % p
	var kids []int
	for m := low >> 1; m >= 1; m >>= 1 {
		if rel+m < p {
			kids = append(kids, (rel+m+root)%p)
		}
	}
	forward := func(tg uint64, msg *tensor.Tensor) error {
		for _, kid := range kids {
			if err := g.tr.Send(kid, key, tg, msg); err != nil {
				return err
			}
		}
		return nil
	}

	out := t
	var hdr *tensor.Tensor
	var err error
	if rel == 0 {
		hdr = broadcastHeader(t)
	} else if hdr, err = g.tr.Recv(parent, key, tag(seq, phaseTree, 0, 0)); err != nil {
		return nil, g.fatal(err)
	} else if out, err = tensorFromBroadcastHeader(key, hdr); err != nil {
		return nil, g.fatal(err)
	}
	// Send consumes its payload before returning, so the header (and below,
	// each relayed chunk) can go back to the pool once forwarded.
	if err := forward(tag(seq, phaseTree, 0, 0), hdr); err != nil {
		return nil, g.fatal(err)
	}
	tensor.Recycle(hdr)
	n, chunk := out.NumElements(), g.chunkElems(out.DType())
	for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
		end := min(off+chunk, n)
		piece := out.Flat(off, end)
		if rel != 0 {
			msg, err := g.tr.Recv(parent, key, tag(seq, phaseTree, 1, k))
			if err != nil {
				return nil, g.fatal(err)
			}
			if err := checkChunk(key, parent, msg, out.DType(), end-off); err != nil {
				return nil, g.fatal(err)
			}
			_ = piece.CopyFrom(msg) // checked above
			tensor.Recycle(msg)
		}
		if err := forward(tag(seq, phaseTree, 1, k), piece); err != nil {
			return nil, g.fatal(err)
		}
	}
	if rel == 0 {
		return t.Clone(), nil
	}
	return out, nil
}

// broadcastHeader packs dtype + shape into the int64 header tensor a
// broadcast leads with.
func broadcastHeader(t *tensor.Tensor) *tensor.Tensor {
	hdr := make([]int64, 1+t.Rank())
	hdr[0] = int64(t.DType())
	for i, d := range t.Shape() {
		hdr[1+i] = int64(d)
	}
	return tensor.FromI64(tensor.Shape{len(hdr)}, hdr)
}

// tensorFromBroadcastHeader validates a received header and allocates the
// destination tensor it describes.
func tensorFromBroadcastHeader(key string, hdrT *tensor.Tensor) (*tensor.Tensor, error) {
	if hdrT.DType() != tensor.Int64 {
		return nil, fmt.Errorf("collective: %q: malformed broadcast header", key)
	}
	dt, shape, err := broadcastShape(hdrT.I64())
	if err != nil {
		return nil, fmt.Errorf("collective: %q: %w", key, err)
	}
	return tensor.New(dt, shape...), nil
}

// broadcastShape checks a broadcast header — the dtype, then the dims —
// before anything is sized from it: the tensor it describes must fit in one
// encodable tensor, so a peer's header fails the broadcast, never the
// process.
func broadcastShape(hdr []int64) (tensor.DType, tensor.Shape, error) {
	// Rank 32 is the most tensor decoding accepts.
	if len(hdr) < 1 || len(hdr) > 33 || tensor.DType(hdr[0]).Size() == 0 {
		return 0, nil, fmt.Errorf("malformed broadcast header of %d values", len(hdr))
	}
	dt := tensor.DType(hdr[0])
	limit := tensor.MaxEncodedBytes / int64(dt.Size())
	shape := make(tensor.Shape, len(hdr)-1)
	elems := int64(1)
	for i, d := range hdr[1:] {
		if d < 0 || d > limit || elems*d > limit {
			return 0, nil, fmt.Errorf("broadcast header: dim %d of %v takes it past the %d-byte bound", d, dt, tensor.MaxEncodedBytes)
		}
		shape[i] = int(d)
		elems *= d
	}
	return dt, shape, nil
}
