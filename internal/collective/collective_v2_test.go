package collective_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/simnet"
	"tfhpc/internal/tensor"
)

// groupSizes is the rank-count sweep of the v2 property tests. The CI
// collective-matrix job pins one size per matrix leg via TFHPC_COLL_RANKS
// (odd and non-power-of-two sizes exercise the doubling fold/unfold and the
// tree's ragged last level); unset, the local run sweeps them all.
func groupSizes(t *testing.T) []int {
	if s := os.Getenv("TFHPC_COLL_RANKS"); s != "" {
		var ps []int
		for _, f := range strings.Split(s, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 {
				t.Fatalf("bad TFHPC_COLL_RANKS %q", s)
			}
			ps = append(ps, p)
		}
		return ps
	}
	return []int{1, 2, 3, 4, 5}
}

// intVec returns a deterministic integer-valued float64 vector: sums of
// such values are exact in IEEE arithmetic, so every algorithm must agree
// with the serial reference bit-for-bit regardless of combination order.
func intVec(seed uint64, n int) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(2000) - 1000)
	}
	return tensor.FromF64(tensor.Shape{n}, v)
}

func intVecAs(dt tensor.DType, seed uint64, n int) *tensor.Tensor {
	f := intVec(seed, n).F64()
	out := tensor.New(dt, n)
	switch dt {
	case tensor.Float32:
		d := out.F32()
		for i := range d {
			d[i] = float32(f[i])
		}
	case tensor.Float64:
		copy(out.F64(), f)
	case tensor.Int32:
		d := out.I32()
		for i := range d {
			d[i] = int32(f[i])
		}
	case tensor.Int64:
		d := out.I64()
		for i := range d {
			d[i] = int64(f[i])
		}
	}
	return out
}

// TestAlgorithmsMatchNaive is the v2 acceptance property: recursive
// doubling and the auto picker must match the serial gather-to-root
// reference bit-exactly on integer-valued inputs — every dtype, both
// reduction ops, both transports, group sizes including odd and
// non-power-of-two, lengths that exercise the fold/unfold paths.
func TestAlgorithmsMatchNaive(t *testing.T) {
	dtypes := []tensor.DType{tensor.Float32, tensor.Float64, tensor.Int32, tensor.Int64}
	for _, transport := range []string{"loopback", "tcp"} {
		for _, p := range groupSizes(t) {
			for _, alg := range []string{collective.AlgoDoubling, collective.AlgoAuto} {
				name := fmt.Sprintf("%s/p%d/%s", transport, p, alg)
				t.Run(name, func(t *testing.T) {
					if transport == "tcp" && testing.Short() && p > 4 {
						t.Skip("short mode")
					}
					var groups []*collective.Group
					opts := collective.Options{ChunkBytes: 512}
					if transport == "tcp" {
						groups = tcpGroups(t, p, opts, 20*time.Second)
					} else {
						groups = collective.NewLoopbackGroups(p, opts)
					}
					for _, n := range []int{1, 3, 64, 1023} {
						for _, dt := range dtypes {
							for _, op := range []string{collective.OpSum, collective.OpMax} {
								key := fmt.Sprintf("v2/%d/%v/%s", n, dt, op)
								ins := make([]*tensor.Tensor, p)
								for r := 0; r < p; r++ {
									ins[r] = intVecAs(dt, uint64(31*p+7*r+n), n)
								}
								got := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
									return g.AllReduceAlg(key, ins[g.Rank()], op, alg)
								})
								want := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
									return g.NaiveAllReduce("ref/"+key, ins[g.Rank()], op)
								})
								for r := 0; r < p; r++ {
									if !got[r].Equal(want[r]) {
										t.Fatalf("%s n=%d %v %s: rank %d differs from reference", name, n, dt, op, r)
									}
									if !got[r].Equal(got[0]) {
										t.Fatalf("%s n=%d %v %s: rank %d differs from rank 0", name, n, dt, op, r)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestDoublingBitIdenticalAcrossRanks: the doubling combination tree
// depends only on p, so even with arbitrary (non-integer) floats every
// rank must end with bit-identical results — the property the fusion
// buffer's fused-equals-unfused guarantee rests on.
func TestDoublingBitIdenticalAcrossRanks(t *testing.T) {
	for _, p := range groupSizes(t) {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			groups := collective.NewLoopbackGroups(p, collective.Options{})
			ins := make([]*tensor.Tensor, p)
			for r := 0; r < p; r++ {
				ins[r] = randVec(uint64(101*p+r), 777)
			}
			outs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
				return g.AllReduceAlg("bits", ins[g.Rank()], collective.OpSum, collective.AlgoDoubling)
			})
			for r := 1; r < p; r++ {
				if !outs[r].Equal(outs[0]) {
					t.Fatalf("rank %d not bit-identical to rank 0", r)
				}
			}
		})
	}
}

// countingTransport counts Send calls so tests can observe which algorithm
// actually ran.
type countingTransport struct {
	collective.Transport
	sends *atomic.Int64
}

func (c *countingTransport) Send(to int, key string, tg uint64, t *tensor.Tensor) error {
	c.sends.Add(1)
	return c.Transport.Send(to, key, tg, t)
}

// TestPickerSwitchesAlgorithms verifies the bytes/p keying end to end: at
// p=4 a doubling allreduce sends log2(4)=2 messages per rank while the ring
// sends 2(p−1)=6 chunks, so the per-rank send count identifies the
// algorithm the picker chose on either side of the threshold.
func TestPickerSwitchesAlgorithms(t *testing.T) {
	const p = 4
	build := func(switchBytes int) ([]*collective.Group, *atomic.Int64) {
		opts := collective.Options{SwitchBytes: switchBytes, ChunkBytes: 1 << 30}
		var sends atomic.Int64
		groups := collective.NewLoopbackGroups(p, opts)
		for i, g := range groups {
			groups[i] = collective.NewGroup(&countingTransport{g.Transport(), &sends}, opts)
		}
		return groups, &sends
	}
	in := func(r int) *tensor.Tensor { return intVec(uint64(r), 1024) } // 8 KiB, 2 KiB/rank

	groups, sends := build(4 << 10) // threshold above 2 KiB/rank -> doubling
	runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
		return g.AllReduce("auto", in(g.Rank()), collective.OpSum)
	})
	if got := sends.Load(); got != 2*p {
		t.Fatalf("small payload: %d sends, want %d (doubling)", got, 2*p)
	}

	groups, sends = build(1 << 10) // threshold below 2 KiB/rank -> ring
	runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
		return g.AllReduce("auto", in(g.Rank()), collective.OpSum)
	})
	if got := sends.Load(); got != 6*p {
		t.Fatalf("large payload: %d sends, want %d (ring)", got, 6*p)
	}
}

// TestTreeBroadcast covers the binomial tree, Broadcast's one algorithm,
// across group sizes, roots and chunking.
func TestTreeBroadcast(t *testing.T) {
	for _, p := range groupSizes(t) {
		for _, root := range []int{0, p - 1, p / 2} {
			t.Run(fmt.Sprintf("p%d/root%d", p, root), func(t *testing.T) {
				groups := collective.NewLoopbackGroups(p, collective.Options{ChunkBytes: 64})
				src := randVec(77, 301)
				outs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
					if g.Rank() == root {
						return g.Broadcast("tb", src, root)
					}
					return g.Broadcast("tb", nil, root)
				})
				for r := 0; r < p; r++ {
					if !outs[r].Equal(src) {
						t.Fatalf("rank %d: tree broadcast mismatch", r)
					}
				}
			})
		}
	}
}

// TestReduceScatter: rank r must end with exactly segment r (SegBounds
// split) of the full reduction, bit-exact on integer-valued inputs.
func TestReduceScatter(t *testing.T) {
	for _, transport := range []string{"loopback", "tcp"} {
		for _, p := range groupSizes(t) {
			// n < p cases leave some ranks with empty segments — they must
			// still flow through the relay schedule.
			for _, n := range []int{1, 7, 64, 1023} {
				t.Run(fmt.Sprintf("%s/p%d/n%d", transport, p, n), func(t *testing.T) {
					if transport == "tcp" && testing.Short() && p > 4 {
						t.Skip("short mode")
					}
					opts := collective.Options{ChunkBytes: 128}
					var groups []*collective.Group
					if transport == "tcp" {
						groups = tcpGroups(t, p, opts, 20*time.Second)
					} else {
						groups = collective.NewLoopbackGroups(p, opts)
					}
					ins := make([]*tensor.Tensor, p)
					want := make([]float64, n)
					for r := 0; r < p; r++ {
						ins[r] = intVec(uint64(13*p+r+n), n)
						for i, v := range ins[r].F64() {
							want[i] += v
						}
					}
					outs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
						return g.ReduceScatter("rs", ins[g.Rank()], collective.OpSum)
					})
					for r := 0; r < p; r++ {
						lo, hi := collective.SegBounds(n, p, r)
						if outs[r].NumElements() != hi-lo {
							t.Fatalf("rank %d: segment has %d elements, want %d", r, outs[r].NumElements(), hi-lo)
						}
						for i, v := range outs[r].F64() {
							if v != want[lo+i] {
								t.Fatalf("rank %d: elem %d = %g, want %g", r, lo+i, v, want[lo+i])
							}
						}
					}
				})
			}
		}
	}
}

// TestAllGatherV gathers uneven per-rank shards — including an empty one —
// and checks rank-order concatenation, higher-rank trailing dims, and the
// complex dtype the FFT tiles ride on.
func TestAllGatherV(t *testing.T) {
	for _, p := range groupSizes(t) {
		t.Run(fmt.Sprintf("p%d/f64", p), func(t *testing.T) {
			groups := collective.NewLoopbackGroups(p, collective.Options{ChunkBytes: 64})
			lens := make([]int, p)
			for r := range lens {
				lens[r] = 3*r + 1
			}
			if p >= 3 {
				lens[1] = 0 // empty shard must flow through
			}
			outs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
				r := g.Rank()
				v := make([]float64, lens[r])
				for i := range v {
					v[i] = float64(1000*r + i)
				}
				return g.AllGatherV("agv", tensor.FromF64(tensor.Shape{lens[r]}, v))
			})
			total := 0
			for _, l := range lens {
				total += l
			}
			for r := 0; r < p; r++ {
				if outs[r].NumElements() != total {
					t.Fatalf("rank %d: %d elements, want %d", r, outs[r].NumElements(), total)
				}
				pos := 0
				for s := 0; s < p; s++ {
					for i := 0; i < lens[s]; i++ {
						if outs[r].F64()[pos] != float64(1000*s+i) {
							t.Fatalf("rank %d: flat elem %d = %g, want %g", r, pos, outs[r].F64()[pos], float64(1000*s+i))
						}
						pos++
					}
				}
			}
		})
		t.Run(fmt.Sprintf("p%d/c128rows", p), func(t *testing.T) {
			groups := collective.NewLoopbackGroups(p, collective.Options{})
			const cols = 3
			outs := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
				r := g.Rank()
				rows := r + 1
				v := make([]complex128, rows*cols)
				for i := range v {
					v[i] = complex(float64(r), float64(i))
				}
				return g.AllGatherV("agvc", tensor.FromC128(tensor.Shape{rows, cols}, v))
			})
			wantRows := p * (p + 1) / 2
			for r := 0; r < p; r++ {
				if !outs[r].Shape().Equal(tensor.Shape{wantRows, cols}) {
					t.Fatalf("rank %d: shape %v, want [%d %d]", r, outs[r].Shape(), wantRows, cols)
				}
				if !outs[r].Equal(outs[0]) {
					t.Fatalf("rank %d: gathered rows differ from rank 0", r)
				}
			}
		})
	}
}

// TestAllGatherVTrailingMismatch: differing trailing dims must error on
// every rank, not hang or mis-concatenate.
func TestAllGatherVTrailingMismatch(t *testing.T) {
	p := 2
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	_, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
		cols := 2 + g.Rank() // 2 on rank 0, 3 on rank 1
		return g.AllGatherV("bad", tensor.New(tensor.Float64, 2, cols))
	})
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("trailing-dim mismatch went undetected")
	}
}

// gatherDTypes are the dtypes AllGatherV and GatherV carry.
var gatherDTypes = []tensor.DType{tensor.Float32, tensor.Float64, tensor.Int32, tensor.Int64,
	tensor.Complex64, tensor.Complex128, tensor.Bool}

// shardOf is rank r's rows×cols shard of dtype dt, every element distinct
// per (rank, position) where the dtype allows.
func shardOf(dt tensor.DType, r, rows, cols int) *tensor.Tensor {
	t := tensor.New(dt, rows, cols)
	for i := 0; i < rows*cols; i++ {
		v := float64(1000*r+i) + 0.25
		switch dt {
		case tensor.Float32:
			t.F32()[i] = float32(v)
		case tensor.Float64:
			t.F64()[i] = v
		case tensor.Int32:
			t.I32()[i] = int32(v)
		case tensor.Int64:
			t.I64()[i] = int64(v)
		case tensor.Complex64:
			t.C64()[i] = complex(float32(v), -float32(r))
		case tensor.Complex128:
			t.C128()[i] = complex(v, -float64(r))
		case tensor.Bool:
			t.Bools()[i] = (r+i)%3 == 0
		}
	}
	return t
}

// collGroups builds p groups over the named transport.
func collGroups(t *testing.T, transport string, p int, opts collective.Options) []*collective.Group {
	if transport == "tcp" {
		if testing.Short() && p > 4 {
			t.Skip("short mode")
		}
		return tcpGroups(t, p, opts, 20*time.Second)
	}
	return collective.NewLoopbackGroups(p, opts)
}

// TestGatherV: over both transports, every dtype, ragged and zero-row
// shards and several roots, the root's result is bit-identical to
// AllGatherV's and every other rank gets zero rows of the same trailing
// shape.
func TestGatherV(t *testing.T) {
	const cols = 3
	for _, transport := range []string{"loopback", "tcp"} {
		for _, p := range groupSizes(t) {
			t.Run(fmt.Sprintf("%s/p%d", transport, p), func(t *testing.T) {
				groups := collGroups(t, transport, p, collective.Options{ChunkBytes: 40})
				ragged := make([]int, p)
				for r := range ragged {
					ragged[r] = (3*r + 2) % 5 // 2, 0, 3, 1, 4: a zero-row shard from p=2 on
				}
				for _, lens := range [][]int{ragged, make([]int, p)} {
					for _, root := range []int{0, p - 1, p / 2} {
						for _, dt := range gatherDTypes {
							key := fmt.Sprintf("%v/%v/root%d", lens, dt, root)
							want := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
								return g.AllGatherV("all/"+key, shardOf(dt, g.Rank(), lens[g.Rank()], cols))
							})
							got := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
								return g.GatherV(key, shardOf(dt, g.Rank(), lens[g.Rank()], cols), root)
							})
							for r := 0; r < p; r++ {
								if r == root {
									if !got[r].Equal(want[r]) {
										t.Fatalf("%s: root %d's gather differs from AllGatherV's", key, r)
									}
								} else if !got[r].Shape().Equal(tensor.Shape{0, cols}) || got[r].DType() != dt {
									t.Fatalf("%s: rank %d got %v%v, want zero rows", key, r, got[r].DType(), got[r].Shape())
								}
							}
						}
					}
				}
				// Rank-0 inputs are one row each, as for AllGatherV.
				got := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
					return g.GatherV("scalars", tensor.ScalarF64(float64(g.Rank())), p-1)
				})
				for r, v := range got[p-1].F64() {
					if v != float64(r) || got[p-1].NumElements() != p {
						t.Fatalf("scalar gather = %v", got[p-1].F64())
					}
				}
			})
		}
	}
}

// TestGatherVMismatchFailsEveryRank: mismatched trailing dims, or ranks
// naming different roots, fail every rank on both transports — no rank
// hangs — and the group still works afterwards.
func TestGatherVMismatchFailsEveryRank(t *testing.T) {
	for _, transport := range []string{"loopback", "tcp"} {
		for _, p := range groupSizes(t) {
			if p < 2 {
				continue
			}
			t.Run(fmt.Sprintf("%s/p%d", transport, p), func(t *testing.T) {
				groups := collGroups(t, transport, p, collective.Options{})
				cases := map[string]func(g *collective.Group) (*tensor.Tensor, error){
					"cols": func(g *collective.Group) (*tensor.Tensor, error) {
						cols := 2
						if g.Rank() == p-1 {
							cols = 3
						}
						return g.GatherV("cols", tensor.New(tensor.Float64, 2, cols), 0)
					},
					"root": func(g *collective.Group) (*tensor.Tensor, error) {
						return g.GatherV("root", tensor.New(tensor.Float64, 2, 2), min(g.Rank(), 1))
					},
				}
				for name, fn := range cases {
					done := make(chan []error, 1)
					go func() {
						_, errs := runAllErr(groups, fn)
						done <- errs
					}()
					select {
					case errs := <-done:
						for r, err := range errs {
							if err == nil {
								t.Fatalf("%s mismatch: rank %d got no error", name, r)
							}
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s mismatch: a rank hung", name)
					}
				}
				runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
					return g.GatherV("after", tensor.New(tensor.Float64, 1, 2), 0)
				})
			})
		}
	}
	g := collective.NewLoopbackGroups(1, collective.Options{})[0]
	if _, err := g.GatherV("bad", tensor.ScalarF64(1), 1); err == nil {
		t.Fatal("root out of range: no error")
	}
}

// TestAsyncHandles drives the Start/Join pair the AllReduceStart/Join ops
// ride on: two handles in flight at once (the double-buffer shape), joined
// out of order, plus the duplicate-start and missing-join error paths.
func TestAsyncHandles(t *testing.T) {
	p := 3
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	a := make([]*tensor.Tensor, p)
	b := make([]*tensor.Tensor, p)
	for r := 0; r < p; r++ {
		a[r] = intVec(uint64(r+1), 64)
		b[r] = intVec(uint64(r+100), 64)
	}
	sum := func(ins []*tensor.Tensor) []float64 {
		out := make([]float64, ins[0].NumElements())
		for _, in := range ins {
			for i, v := range in.F64() {
				out[i] += v
			}
		}
		return out
	}
	wantA, wantB := sum(a), sum(b)

	_, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
		r := g.Rank()
		if err := g.StartAllReduce("even", "ka", a[r], collective.OpSum); err != nil {
			return nil, err
		}
		if err := g.StartAllReduce("odd", "kb", b[r], collective.OpSum); err != nil {
			return nil, err
		}
		if err := g.StartAllReduce("even", "kc", a[r], collective.OpSum); err == nil {
			return nil, fmt.Errorf("duplicate start on handle accepted")
		}
		gotB, err := g.JoinAllReduce("odd")
		if err != nil {
			return nil, err
		}
		gotA, err := g.JoinAllReduce("even")
		if err != nil {
			return nil, err
		}
		for i := range wantA {
			if gotA.F64()[i] != wantA[i] || gotB.F64()[i] != wantB[i] {
				return nil, fmt.Errorf("async result mismatch at %d", i)
			}
		}
		if _, err := g.JoinAllReduce("even"); err == nil {
			return nil, fmt.Errorf("join of consumed handle accepted")
		}
		return nil, nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestAllReduceAsyncOrdering issues two asyncs under one key back to back:
// the sequence slot is reserved at call time, so results must match call
// order on every rank even though both collectives are in flight together.
func TestAllReduceAsyncOrdering(t *testing.T) {
	p := 4
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	_, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
		r := g.Rank()
		first := g.AllReduceAsync("k", intVec(uint64(r+1), 32), collective.OpSum)
		second := g.AllReduceAsync("k", intVec(uint64(r+50), 32), collective.OpSum)
		f, err := first.Wait()
		if err != nil {
			return nil, err
		}
		s, err := second.Wait()
		if err != nil {
			return nil, err
		}
		var wantF, wantS float64
		for q := 0; q < p; q++ {
			wantF += intVec(uint64(q+1), 32).F64()[0]
			wantS += intVec(uint64(q+50), 32).F64()[0]
		}
		if f.F64()[0] != wantF || s.F64()[0] != wantS {
			return nil, fmt.Errorf("async ordering broke: got (%g,%g) want (%g,%g)",
				f.F64()[0], s.F64()[0], wantF, wantS)
		}
		return nil, nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestDoublingDroppedTask: a task dying mid-butterfly must never hang the
// group. Unlike the ring — where every rank relays every segment — the
// butterfly lets ranks whose exchanges all preceded the failure finish with
// the complete result, so the contract is: the dropped rank and every rank
// still owed one of its messages error out, and any rank that does return
// holds the full, correct reduction.
func TestDoublingDroppedTask(t *testing.T) {
	p, n := 4, 4096
	plans := plansFor(p, simnet.NewFaultPlan())
	plans[1].DropRank = 1
	plans[1].DropAfterSends = 1
	groups := faultyGroups(p, plans, collective.Options{Algorithm: collective.AlgoDoubling})
	ins := make([]*tensor.Tensor, p)
	want := make([]float64, n)
	for r := range ins {
		ins[r] = randVec(uint64(r+13), n)
		for i, v := range ins[r].F64() {
			want[i] += v
		}
	}
	type result struct {
		outs []*tensor.Tensor
		errs []error
	}
	done := make(chan result, 1)
	go func() {
		outs, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllReduce("drop2", ins[g.Rank()], collective.OpSum)
		})
		done <- result{outs, errs}
	}()
	select {
	case res := <-done:
		if res.errs[1] == nil {
			t.Fatal("dropped rank returned no error")
		}
		failed := 0
		wantT := tensor.FromF64(tensor.Shape{n}, want)
		for r, err := range res.errs {
			if err != nil {
				failed++
				continue
			}
			if !res.outs[r].ApproxEqual(wantT, 1e-12) {
				t.Fatalf("rank %d returned success with a corrupt reduction", r)
			}
		}
		if failed < 2 {
			t.Fatalf("only %d ranks errored; the rank owed the dropped message must fail too", failed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dropped task hung the doubling collective instead of erroring")
	}
}

// TestConcurrentKeysAcrossAlgorithms stresses mixed in-flight algorithms on
// one group: doubling, ring and reduce-scatter traffic under distinct keys
// at once, repeatedly, under -race.
func TestConcurrentKeysAcrossAlgorithms(t *testing.T) {
	p := 4
	groups := collective.NewLoopbackGroups(p, collective.Options{ChunkBytes: 256})
	var wg sync.WaitGroup
	errs := make(chan error, 3*p)
	for r := 0; r < p; r++ {
		for _, job := range []string{"small", "large", "rs"} {
			wg.Add(1)
			go func(r int, job string) {
				defer wg.Done()
				for iter := 0; iter < 8; iter++ {
					in := intVec(uint64(r+1), 512)
					var err error
					switch job {
					case "small":
						_, err = groups[r].AllReduceAlg(job, in, collective.OpSum, collective.AlgoDoubling)
					case "large":
						_, err = groups[r].AllReduceAlg(job, in, collective.OpSum, collective.AlgoRing)
					case "rs":
						_, err = groups[r].ReduceScatter(job, in, collective.OpSum)
					}
					if err != nil {
						errs <- fmt.Errorf("rank %d %s iter %d: %w", r, job, iter, err)
						return
					}
				}
			}(r, job)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
