package collective_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

// netGroups boots p rpc servers hosting hubs and returns groups over
// NewNetTransport with the given config. When register is true every task's
// address is published in the shm registry, so all peer edges are local
// edges into the peers' registered hubs; ranks listed in netOnly stay
// unregistered and keep network edges (mixed-fabric coverage).
func netGroups(t *testing.T, p int, opts collective.Options, cfg collective.TransportConfig, register bool, netOnly map[int]bool) []*collective.Group {
	t.Helper()
	hubs := make([]*collective.Hub, p)
	servers := make([]*rpc.Server, p)
	inboxes := make([]*collective.ShmInbox, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		hubs[i] = collective.NewHub()
		servers[i] = rpc.NewServer()
		servers[i].HandleStream(collective.StreamMethod, hubs[i].HandleStream)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		if register && !netOnly[i] {
			inboxes[i] = collective.NewShmInbox()
			collective.RegisterShm(addr, inboxes[i])
		}
	}
	groups := make([]*collective.Group, p)
	for i := 0; i < p; i++ {
		tr, err := collective.NewNetTransport("test", i, addrs, hubs[i], 10*time.Second, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = collective.NewGroup(tr, opts)
	}
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
		for i := 0; i < p; i++ {
			if inboxes[i] != nil {
				collective.UnregisterShm(addrs[i], inboxes[i])
				inboxes[i].Close()
			}
			servers[i].Close()
		}
	})
	return groups
}

func skipIfNoShm(t *testing.T) {
	t.Helper()
	if os.Getenv("TFHPC_NO_SHM") != "" {
		t.Skip("TFHPC_NO_SHM set")
	}
}

// transportVariants runs the same property over every edge fabric the net
// transport can assemble.
func transportVariants(t *testing.T, opts collective.Options, fn func(t *testing.T, groups []*collective.Group, p int)) {
	variants := []struct {
		name     string
		register bool
		netOnly  map[int]bool
		cfg      collective.TransportConfig
	}{
		{name: "stream"},
		{name: "stream_noshm", register: true, cfg: collective.TransportConfig{DisableShm: true}},
		{name: "shm", register: true},
		{name: "mixed", register: true, netOnly: map[int]bool{1: true, 3: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if v.register {
				skipIfNoShm(t)
			}
			for _, p := range []int{2, 4} {
				groups := netGroups(t, p, opts, v.cfg, v.register, v.netOnly)
				fn(t, groups, p)
			}
		})
	}
}

// TestTransportFabricsMatch checks allreduce, allgather, and broadcast over
// every fabric against the loopback reference.
func TestTransportFabricsMatch(t *testing.T) {
	opts := collective.Options{ChunkBytes: 512, Algorithm: collective.AlgoRing}
	transportVariants(t, opts, func(t *testing.T, groups []*collective.Group, p int) {
		n := 1023
		ins := make([]*tensor.Tensor, p)
		for r := 0; r < p; r++ {
			ins[r] = randVec(uint64(4000*p+r), n)
		}
		ref := collective.NewLoopbackGroups(p, opts)
		want := runAll(t, ref, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllReduce("ar", ins[g.Rank()], collective.OpSum)
		})
		got := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllReduce("ar", ins[g.Rank()], collective.OpSum)
		})
		for r := 0; r < p; r++ {
			requireSameF64(t, fmt.Sprintf("allreduce p=%d rank %d", p, r), want[r], got[r])
		}

		wantG := runAll(t, ref, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllGather("ag", ins[g.Rank()])
		})
		gotG := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllGather("ag", ins[g.Rank()])
		})
		for r := 0; r < p; r++ {
			requireSameF64(t, fmt.Sprintf("allgather p=%d rank %d", p, r), wantG[r], gotG[r])
		}

		gotB := runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
			var in *tensor.Tensor
			if g.Rank() == 0 {
				in = ins[0]
			}
			return g.Broadcast("bc", in, 0)
		})
		for r := 0; r < p; r++ {
			requireSameF64(t, fmt.Sprintf("broadcast p=%d rank %d", p, r), ins[0], gotB[r])
		}

		_, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return nil, g.Barrier("bar")
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("barrier p=%d rank %d: %v", p, r, err)
			}
		}
	})
}

// TestTransportTeardownLeavesNoGoroutines builds p=4 groups over each
// networked fabric, runs an allreduce, and tears groups, inboxes and
// servers down: every goroutine the transports started must exit, so no
// per-peer goroutine survives a transport.
func TestTransportTeardownLeavesNoGoroutines(t *testing.T) {
	const p = 4
	opts := collective.Options{ChunkBytes: 512, Algorithm: collective.AlgoRing}
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		ins[r] = randVec(uint64(5000+r), 1023)
	}
	allreduce := func(t *testing.T, groups []*collective.Group) {
		runAll(t, groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllReduce("ar", ins[g.Rank()], collective.OpSum)
		})
	}
	// Warm the shared worker pool the reductions fan out on: its workers
	// live for the process, so they belong in the baseline.
	warm := collective.NewLoopbackGroups(p, opts)
	allreduce(t, warm)
	for _, g := range warm {
		g.Close()
	}
	base := runtime.NumGoroutine()

	variants := []struct {
		name     string
		register bool
		netOnly  map[int]bool
	}{
		{name: "stream"},
		{name: "shm", register: true},
		{name: "mixed", register: true, netOnly: map[int]bool{1: true, 3: true}},
	}
	for _, v := range variants {
		if v.register && os.Getenv("TFHPC_NO_SHM") != "" {
			continue
		}
		// The subtest's cleanup closes the groups, inboxes and servers.
		t.Run(v.name, func(t *testing.T) {
			allreduce(t, netGroups(t, p, opts, collective.TransportConfig{}, v.register, v.netOnly))
		})
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines after teardown, baseline %d:\n%s",
					v.name, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// requireSameF64 asserts bit-identical float64 payloads.
func requireSameF64(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", label)
	}
	w, g := want.F64(), got.F64()
	if len(w) != len(g) {
		t.Fatalf("%s: length %d, want %d", label, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: element %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// TestShmSenderFailsAfterReceiverClose checks shm back-pressure poisoning:
// once the receiving transport goes away, a blocked or future shm send
// errors instead of hanging.
func TestShmSenderFailsAfterReceiverClose(t *testing.T) {
	skipIfNoShm(t)
	opts := collective.Options{ChunkBytes: 1 << 20}
	groups := netGroups(t, 2, opts, collective.TransportConfig{}, true, nil)
	// Receiver leaves.
	if err := groups[1].Close(); err != nil {
		t.Fatal(err)
	}
	tr := groups[0].Transport()
	payload := randVec(1, 1<<16)
	deadline := time.After(5 * time.Second)
	done := make(chan error, 1)
	go func() {
		// The receiver's closed epoch stays fenced in its hub, so no send
		// may land; the loop only bounds how long a regression could hide.
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = tr.Send(1, "k", uint64(i), payload)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to closed shm receiver succeeded")
		}
	case <-deadline:
		t.Fatal("send to closed shm receiver hung")
	}
}

// TestShmJumboRecord pushes a 2 MiB tensor over a co-located edge in one
// chunk: it must arrive whole rather than deadlock or truncate.
func TestShmJumboRecord(t *testing.T) {
	skipIfNoShm(t)
	opts := collective.Options{ChunkBytes: 64 << 20} // one chunk: a 2 MiB record
	groups := netGroups(t, 2, opts, collective.TransportConfig{}, true, nil)
	n := (2 << 20) / 8
	in := randVec(99, n)
	done := make(chan error, 1)
	go func() {
		done <- groups[0].Transport().Send(1, "jumbo", 1, in)
	}()
	got, err := groups[1].Transport().Recv(0, "jumbo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	requireSameF64(t, "jumbo", in, got)
}

// edgeFabrics builds 2-rank groups over each edge type a peer can be
// reached by: rpc stream edges, local edges into co-located peers' registered
// hubs, and NewLoopbackGroups. The co-located case skips under TFHPC_NO_SHM;
// the other two run everywhere.
var edgeFabrics = []struct {
	name  string
	build func(t *testing.T, opts collective.Options) []*collective.Group
}{
	{"stream", func(t *testing.T, opts collective.Options) []*collective.Group {
		return netGroups(t, 2, opts, collective.TransportConfig{}, false, nil)
	}},
	{"colocated", func(t *testing.T, opts collective.Options) []*collective.Group {
		skipIfNoShm(t)
		return netGroups(t, 2, opts, collective.TransportConfig{}, true, nil)
	}},
	{"inproc", func(t *testing.T, opts collective.Options) []*collective.Group {
		groups := collective.NewLoopbackGroups(2, opts)
		t.Cleanup(func() {
			for _, g := range groups {
				g.Close()
			}
		})
		return groups
	}},
}

// TestRelayAllocs is the transport-tier allocation gate: a steady-state
// send → edge → hub → recv round trip may not allocate on any edge type.
// Frames recycle through the wire buffer pool, tensors through the rank-1
// pool, a stream edge reuses its last key string, and the lane timer is
// reused — one allocation anywhere on the path fails this test.
func TestRelayAllocs(t *testing.T) {
	for _, f := range edgeFabrics {
		t.Run(f.name, func(t *testing.T) {
			groups := f.build(t, collective.Options{})
			send, recv := groups[0].Transport(), groups[1].Transport()
			payload := randVec(7, 512)
			relay := func() {
				if err := send.Send(1, "k", 7, payload); err != nil {
					t.Fatal(err)
				}
				got, err := recv.Recv(0, "k", 7)
				if err != nil {
					t.Fatal(err)
				}
				tensor.Recycle(got)
			}
			for i := 0; i < 200; i++ {
				relay()
			}
			if avg := testing.AllocsPerRun(300, relay); avg != 0 {
				t.Fatalf("%s relay allocates %.2f allocs/op, want 0", f.name, avg)
			}
		})
	}
}

// TestCloseFailsPeersFast: a rank blocked in Recv from a peer that closes
// wakes with an error at once on every edge type, rather than waiting out
// its receive timeout (10 s for the networked groups, none in process).
func TestCloseFailsPeersFast(t *testing.T) {
	for _, f := range edgeFabrics {
		t.Run(f.name, func(t *testing.T) {
			groups := f.build(t, collective.Options{})
			done := make(chan error, 1)
			go func() {
				_, err := groups[1].Transport().Recv(0, "never", 1)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			if err := groups[0].Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("recv from a closed peer succeeded")
				}
			case <-time.After(3 * time.Second):
				t.Fatal("recv from a closed peer still blocked 3 s after its close")
			}
		})
	}
}

// TestLaneTakersOutOfOrder: two receivers wait on one sender's lane for
// different tags and the chunks arrive in the reverse order. On a stream
// edge the first receiver reads the edge and must queue the chunk it does
// not want for the other and hand the edge on; otherwise one of them never
// returns.
func TestLaneTakersOutOfOrder(t *testing.T) {
	for _, f := range edgeFabrics {
		t.Run(f.name, func(t *testing.T) {
			groups := f.build(t, collective.Options{})
			send, recv := groups[0].Transport(), groups[1].Transport()
			type result struct {
				tg  uint64
				got *tensor.Tensor
				err error
			}
			results := make(chan result, 2)
			// The receiver for tag 1 comes first, so on a stream edge it is
			// the one reading when tag 2 arrives.
			for _, tg := range []uint64{1, 2} {
				go func(tg uint64) {
					got, err := recv.Recv(0, "k", tg)
					results <- result{tg, got, err}
				}(tg)
				time.Sleep(20 * time.Millisecond)
			}
			for _, tg := range []uint64{2, 1} {
				if err := send.Send(1, "k", tg, randVec(tg, 64)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				select {
				case r := <-results:
					if r.err != nil {
						t.Fatalf("recv tag %d: %v", r.tg, r.err)
					}
					requireSameF64(t, fmt.Sprintf("tag %d", r.tg), randVec(r.tg, 64), r.got)
				case <-time.After(5 * time.Second):
					t.Fatal("a receiver never got its chunk")
				}
			}
		})
	}
}
