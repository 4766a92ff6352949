package collective

import (
	"fmt"
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
	switch alg {
	case AlgoRing:
		switch t.DType() {
		case tensor.Float32:
			return ringAllReduce(g, key, seq, t, slF32, op, span)
		case tensor.Float64:
			return ringAllReduce(g, key, seq, t, slF64, op, span)
		case tensor.Int32:
			return ringAllReduce(g, key, seq, t, slI32, op, span)
		case tensor.Int64:
			return ringAllReduce(g, key, seq, t, slI64, op, span)
		}
	case AlgoDoubling:
		switch t.DType() {
		case tensor.Float32:
			return doublingAllReduce(g, key, seq, t, slF32, op)
		case tensor.Float64:
			return doublingAllReduce(g, key, seq, t, slF64, op)
		case tensor.Int32:
			return doublingAllReduce(g, key, seq, t, slI32, op)
		case tensor.Int64:
			return doublingAllReduce(g, key, seq, t, slI64, op)
		}
	default:
		return nil, fmt.Errorf("collective: unknown algorithm %q (want auto|ring|doubling)", alg)
	}
	return nil, fmt.Errorf("collective: allreduce does not support dtype %v", t.DType())
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
func doublingAllReduce[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](g *Group, key string, seq uint64, in *tensor.Tensor, sl slicer[T], op string) (*tensor.Tensor, error) {
	combine, err := combinerFor[T](op)
	if err != nil {
		return nil, err
	}
	p, r := g.Size(), g.Rank()
	if p == 1 {
		return in.Clone(), nil
	}
	out := in.Clone()
	data := sl.data(out)
	n := len(data)
	check := func(msg *tensor.Tensor, from int) error {
		if msg.DType() != in.DType() || msg.NumElements() != n {
			return fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
				key, from, msg.DType(), msg.Shape(), n, in.DType())
		}
		return nil
	}

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
		if err := check(msg, r+1); err != nil {
			return nil, g.fatal(err)
		}
		copy(data, sl.data(msg))
		tensor.Recycle(msg)
		return out, nil
	case r < 2*rem:
		msg, err := g.tr.Recv(r-1, key, tag(seq, phaseDouble, 0, 0))
		if err != nil {
			return nil, g.fatal(err)
		}
		if err := check(msg, r-1); err != nil {
			return nil, g.fatal(err)
		}
		// Canonical operand order (lower physical rank first) keeps the
		// tree deterministic even for non-commutative corner cases (NaN
		// payload propagation follows the first operand on most targets).
		combine(data, sl.data(msg), data)
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
		if err := check(msg, partner); err != nil {
			return nil, g.fatal(err)
		}
		if partner < r {
			combine(data, sl.data(msg), data)
		} else {
			combine(data, data, sl.data(msg))
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

// treeBroadcast replicates root's tensor down a binomial tree: depth
// ⌈log2 p⌉ instead of the ring relay's p−1 hops, so small broadcasts pay
// O(log p) latency. Chunks are forwarded to every child as soon as they
// arrive, so large payloads still pipeline down the levels.
func (g *Group) treeBroadcast(key string, seq uint64, t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	rel := (r - root + p) % p

	// children enumerates this node's binomial subtree roots, highest mask
	// first — the order the sends must go out so the deepest subtree starts
	// earliest.
	childMasks := func(recvMask int) []int {
		var ms []int
		for m := recvMask >> 1; m >= 1; m >>= 1 {
			if rel+m < p {
				ms = append(ms, m)
			}
		}
		return ms
	}

	if rel == 0 { // root
		topMask := 1
		for topMask < p {
			topMask <<= 1
		}
		kids := childMasks(topMask)
		hdr := broadcastHeader(t)
		for _, m := range kids {
			if err := g.tr.Send((rel+m+root)%p, key, tag(seq, phaseTree, 0, 0), hdr); err != nil {
				return nil, g.fatal(err)
			}
		}
		flat, err := t.Reshape(t.NumElements())
		if err != nil {
			return nil, g.fatal(err)
		}
		chunk := g.chunkElems(t.DType())
		n := t.NumElements()
		for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
			end := min(off+chunk, n)
			piece, err := sliceFlat(flat, off, end)
			if err != nil {
				return nil, g.fatal(err)
			}
			for _, m := range kids {
				if err := g.tr.Send((rel+m+root)%p, key, tag(seq, phaseTree, 1, k), piece); err != nil {
					return nil, g.fatal(err)
				}
			}
		}
		return t.Clone(), nil
	}

	// Non-root: the parent is rel with its lowest set bit cleared.
	low := rel & (-rel)
	parent := (rel - low + root) % p
	hdrT, err := g.tr.Recv(parent, key, tag(seq, phaseTree, 0, 0))
	if err != nil {
		return nil, g.fatal(err)
	}
	out, err := tensorFromBroadcastHeader(key, hdrT)
	if err != nil {
		return nil, g.fatal(err)
	}
	kids := childMasks(low)
	for _, m := range kids {
		if err := g.tr.Send((rel+m+root)%p, key, tag(seq, phaseTree, 0, 0), hdrT); err != nil {
			return nil, g.fatal(err)
		}
	}
	tensor.Recycle(hdrT)
	flat, err := out.Reshape(out.NumElements())
	if err != nil {
		return nil, g.fatal(err)
	}
	chunk := g.chunkElems(out.DType())
	n := out.NumElements()
	for k, off := 0, 0; off < n; k, off = k+1, off+chunk {
		end := min(off+chunk, n)
		msg, err := g.tr.Recv(parent, key, tag(seq, phaseTree, 1, k))
		if err != nil {
			return nil, g.fatal(err)
		}
		if msg.DType() != out.DType() || msg.NumElements() != end-off {
			return nil, g.fatal(fmt.Errorf("collective: %q: broadcast chunk %d has %v%v, want %d %v elements",
				key, k, msg.DType(), msg.Shape(), end-off, out.DType()))
		}
		if err := copyFlat(flat, off, msg); err != nil {
			return nil, g.fatal(err)
		}
		for _, m := range kids {
			if err := g.tr.Send((rel+m+root)%p, key, tag(seq, phaseTree, 1, k), msg); err != nil {
				return nil, g.fatal(err)
			}
		}
		tensor.Recycle(msg)
	}
	return out, nil
}

// broadcastHeader packs dtype + shape into the int64 header tensor both
// broadcast algorithms lead with.
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
	if hdrT.DType() != tensor.Int64 || hdrT.NumElements() < 1 {
		return nil, fmt.Errorf("collective: %q: malformed broadcast header", key)
	}
	hdr := hdrT.I64()
	dt := tensor.DType(hdr[0])
	shape := make(tensor.Shape, len(hdr)-1)
	for i := range shape {
		shape[i] = int(hdr[1+i])
	}
	if !shape.Valid() || dt.Size() == 0 {
		return nil, fmt.Errorf("collective: %q: invalid broadcast header %v/%v", key, dt, shape)
	}
	return tensor.New(dt, shape...), nil
}

// ReduceScatter combines equal-shaped tensors element-wise across all ranks
// and leaves rank r holding segment r of the result (SegBounds split, MPI
// convention) as a flat rank-1 tensor — the first half of the ring
// allreduce at half the traffic, for consumers that shard the reduced
// value anyway. Pair with AllGatherV to reassemble the full tensor.
func (g *Group) ReduceScatter(key string, t *tensor.Tensor, op string) (*tensor.Tensor, error) {
	switch t.DType() {
	case tensor.Float32:
		return ringReduceScatter(g, key, t, slF32, op)
	case tensor.Float64:
		return ringReduceScatter(g, key, t, slF64, op)
	case tensor.Int32:
		return ringReduceScatter(g, key, t, slI32, op)
	case tensor.Int64:
		return ringReduceScatter(g, key, t, slI64, op)
	}
	return nil, fmt.Errorf("collective: reduce-scatter does not support dtype %v", t.DType())
}

func ringReduceScatter[T interface {
	~float32 | ~float64 | ~int32 | ~int64
}](g *Group, key string, in *tensor.Tensor, sl slicer[T], op string) (*tensor.Tensor, error) {
	combine, err := combinerFor[T](op)
	if err != nil {
		return nil, err
	}
	p, r := g.Size(), g.Rank()
	src := sl.data(in)
	n := len(src)
	if p == 1 {
		out := tensor.New(in.DType(), n)
		copy(sl.data(out), src)
		return out, nil
	}
	seq := g.nextSeq(key)
	// scratch holds partially reduced segments in transit; only segment r
	// survives into the returned tensor.
	scratch := make([]T, n)
	next, prev := (r+1)%p, (r-1+p)%p
	chunk := g.chunkElems(in.DType())

	// Segment schedule: rank r relays segment (r+p-1-step) and receives
	// (r+p-2-step); after p−1 steps the last received segment is r itself,
	// fully reduced.
	for step := 0; step < p-1; step++ {
		sendSeg := (r + p - 1 - step) % p
		recvSeg := (r + p - 2 - step) % p
		sLo, sHi := SegBounds(n, p, sendSeg)
		rLo, rHi := SegBounds(n, p, recvSeg)

		sendBuf := scratch
		if step == 0 {
			sendBuf = src
		}
		errc := make(chan error, 1)
		go func(buf []T, lo, hi, step int) {
			for k, off := 0, lo; off < hi; k, off = k+1, off+chunk {
				end := min(off+chunk, hi)
				payload := sl.wrap(tensor.Shape{end - off}, buf[off:end:end])
				if err := g.tr.Send(next, key, tag(seq, phaseRS, step, k), payload); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(sendBuf, sLo, sHi, step)

		var recvErr error
		for k, off := 0, rLo; off < rHi; k, off = k+1, off+chunk {
			end := min(off+chunk, rHi)
			msg, err := g.tr.Recv(prev, key, tag(seq, phaseRS, step, k))
			if err != nil {
				recvErr = err
				break
			}
			if msg.DType() != in.DType() || msg.NumElements() != end-off {
				recvErr = fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
					key, prev, msg.DType(), msg.Shape(), end-off, in.DType())
				break
			}
			combine(scratch[off:end], src[off:end], sl.data(msg))
			tensor.Recycle(msg)
		}
		if err := <-errc; err != nil {
			return nil, g.fatal(err)
		}
		if recvErr != nil {
			return nil, g.fatal(recvErr)
		}
	}
	lo, hi := SegBounds(n, p, r)
	out := tensor.New(in.DType(), hi-lo)
	copy(sl.data(out), scratch[lo:hi])
	return out, nil
}

// AllGatherV concatenates per-rank tensors of differing leading dimension
// along axis 0 (rank-0 inputs count as one row of one element). Trailing
// dimensions and dtype must agree across ranks; a size-exchange round
// precedes the data ring, so callers never pre-negotiate shard sizes —
// exactly what uneven SegBounds shards and per-worker tile sets need.
func (g *Group) AllGatherV(key string, t *tensor.Tensor) (*tensor.Tensor, error) {
	switch t.DType() {
	case tensor.Float32:
		return ringAllGatherV(g, key, t, slF32)
	case tensor.Float64:
		return ringAllGatherV(g, key, t, slF64)
	case tensor.Int32:
		return ringAllGatherV(g, key, t, slI32)
	case tensor.Int64:
		return ringAllGatherV(g, key, t, slI64)
	case tensor.Complex64:
		return ringAllGatherV(g, key, t, slC64)
	case tensor.Complex128:
		return ringAllGatherV(g, key, t, slC128)
	case tensor.Bool:
		return ringAllGatherV(g, key, t, slBool)
	}
	return nil, fmt.Errorf("collective: allgatherv does not support dtype %v", t.DType())
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
	switch t.DType() {
	case tensor.Float32:
		return gatherV(g, key, t, root, slF32)
	case tensor.Float64:
		return gatherV(g, key, t, root, slF64)
	case tensor.Int32:
		return gatherV(g, key, t, root, slI32)
	case tensor.Int64:
		return gatherV(g, key, t, root, slI64)
	case tensor.Complex64:
		return gatherV(g, key, t, root, slC64)
	case tensor.Complex128:
		return gatherV(g, key, t, root, slC128)
	case tensor.Bool:
		return gatherV(g, key, t, root, slBool)
	}
	return nil, fmt.Errorf("collective: gatherv does not support dtype %v", t.DType())
}

// exchangeShards is the size-exchange round AllGatherV and GatherV open
// with. Each rank's header — its row count, elements per row and the root
// it names (-1 for AllGatherV) — is relayed unchanged around the ring, so
// after p−1 steps every rank holds all p headers and checks them all. The
// round always runs to the end before any check, so every rank judges the
// same headers: mismatched trailing dims, or roots, fail every rank, none
// is left waiting on a peer that gave up, and the group stays usable. It
// returns the concatenation's shape and each rank's place in it: rank s's
// elements are [offs[s], offs[s+1]).
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

	offs = make([]int, p+1)
	rows := 0
	for s, h := range hdrs {
		switch {
		case h[1] != int64(rowElems):
			return nil, nil, fmt.Errorf("collective: %q: rank %d rows have %d elements, rank %d has %d (trailing dims must match)",
				key, s, h[1], r, rowElems)
		case h[2] != int64(root):
			return nil, nil, fmt.Errorf("collective: %q: rank %d gathers to %d, rank %d to %d", key, s, h[2], r, root)
		case h[0] < 0:
			return nil, nil, fmt.Errorf("collective: %q: negative shard size from rank %d", key, s)
		}
		offs[s] = rows * rowElems
		rows += int(h[0])
	}
	offs[p] = rows * rowElems
	shape = tensor.Shape{rows}
	if in.Rank() >= 1 {
		shape = append(shape, in.Shape()[1:]...)
	}
	return shape, offs, nil
}

func ringAllGatherV[T any](g *Group, key string, in *tensor.Tensor, sl slicer[T]) (*tensor.Tensor, error) {
	p, r := g.Size(), g.Rank()
	seq := g.nextSeq(key)
	shape, offs, err := exchangeShards(g, key, seq, in, -1)
	if err != nil {
		return nil, err
	}
	out := tensor.New(in.DType(), shape...)
	data := sl.data(out)
	copy(data[offs[r]:offs[r+1]], sl.data(in))
	if p == 1 {
		return out, nil
	}
	next, prev := (r+1)%p, (r-1+p)%p
	chunk := g.chunkElems(in.DType())

	for step := 0; step < p-1; step++ {
		sendSeg := (r - step + p) % p
		recvSeg := (r - step - 1 + p) % p
		sLo, sHi := offs[sendSeg], offs[sendSeg+1]
		rLo, rHi := offs[recvSeg], offs[recvSeg+1]

		errc := make(chan error, 1)
		go func(lo, hi, step int) {
			for k, off := 0, lo; off < hi; k, off = k+1, off+chunk {
				end := min(off+chunk, hi)
				payload := sl.wrap(tensor.Shape{end - off}, data[off:end:end])
				if err := g.tr.Send(next, key, tag(seq, phaseGatherV, step, k+1), payload); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(sLo, sHi, step)

		var recvErr error
		for k, off := 0, rLo; off < rHi; k, off = k+1, off+chunk {
			end := min(off+chunk, rHi)
			msg, err := g.tr.Recv(prev, key, tag(seq, phaseGatherV, step, k+1))
			if err != nil {
				recvErr = err
				break
			}
			if msg.DType() != in.DType() || msg.NumElements() != end-off {
				recvErr = fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
					key, prev, msg.DType(), msg.Shape(), end-off, in.DType())
				break
			}
			copy(data[off:end], sl.data(msg))
			tensor.Recycle(msg)
		}
		if err := <-errc; err != nil {
			return nil, g.fatal(err)
		}
		if recvErr != nil {
			return nil, g.fatal(recvErr)
		}
	}
	return out, nil
}

func gatherV[T any](g *Group, key string, in *tensor.Tensor, root int, sl slicer[T]) (*tensor.Tensor, error) {
	r := g.Rank()
	seq := g.nextSeq(key)
	shape, offs, err := exchangeShards(g, key, seq, in, root)
	if err != nil {
		return nil, err
	}
	chunk := g.chunkElems(in.DType())
	if r != root {
		src := sl.data(in)
		for k, off := 0, 0; off < len(src); k, off = k+1, off+chunk {
			end := min(off+chunk, len(src))
			if err := g.tr.Send(root, key, tag(seq, phaseGather, 0, k), sl.wrap(tensor.Shape{end - off}, src[off:end:end])); err != nil {
				return nil, g.fatal(err)
			}
		}
		shape[0] = 0
		return tensor.New(in.DType(), shape...), nil
	}

	out := tensor.New(in.DType(), shape...)
	data := sl.data(out)
	copy(data[offs[r]:offs[r+1]], sl.data(in))
	for s := 0; s < g.Size(); s++ {
		if s == root {
			continue
		}
		lo, hi := offs[s], offs[s+1]
		for k, off := 0, lo; off < hi; k, off = k+1, off+chunk {
			end := min(off+chunk, hi)
			msg, err := g.tr.Recv(s, key, tag(seq, phaseGather, 0, k))
			if err != nil {
				return nil, g.fatal(err)
			}
			if msg.DType() != in.DType() || msg.NumElements() != end-off {
				return nil, g.fatal(fmt.Errorf("collective: %q: peer %d sent %v%v, want %d %v elements (mismatched inputs?)",
					key, s, msg.DType(), msg.Shape(), end-off, in.DType()))
			}
			copy(data[off:end], sl.data(msg))
			tensor.Recycle(msg)
		}
	}
	return out, nil
}
