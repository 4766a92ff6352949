package collective_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/rpc"
	"tfhpc/internal/simnet"
	"tfhpc/internal/tensor"
)

// Stale-epoch fencing tests: every transport tier must reject a superseded
// incarnation's traffic with the typed StaleEpochError — fail fast and typed,
// never hang, never silently mix chunks across memberships. This is the
// transport contract the elastic training layer (apps/sgd) builds on.

// TestStaleEpochErrorContract pins the rejection's identity across a process
// boundary: the typed value matches errors.As, and its flattened string form
// (rpc remote errors, stream reset text) still matches IsStaleEpoch.
func TestStaleEpochErrorContract(t *testing.T) {
	typed := &collective.StaleEpochError{Group: "g", Have: 3, Current: 7}
	if !collective.IsStaleEpoch(typed) {
		t.Fatal("typed error not recognised")
	}
	var se *collective.StaleEpochError
	if !errors.As(fmt.Errorf("wrap: %w", typed), &se) || se.Current != 7 {
		t.Fatal("typed error lost through wrapping")
	}
	flattened := errors.New("rpc: remote error: " + typed.Error())
	if !collective.IsStaleEpoch(flattened) {
		t.Fatal("string-flattened rejection not recognised")
	}
	if collective.IsStaleEpoch(nil) || collective.IsStaleEpoch(errors.New("collective: rank 1 is closed")) {
		t.Fatal("false positive")
	}
}

// epochHarness boots p rpc servers hosting hubs (optionally with shm inboxes
// registered) and hands back what a transport constructor needs.
type epochHarness struct {
	hubs    []*collective.Hub
	addrs   []string
	servers []*rpc.Server
	inboxes []*collective.ShmInbox
}

func newEpochHarness(t *testing.T, p int, shm bool) *epochHarness {
	t.Helper()
	h := &epochHarness{
		hubs:    make([]*collective.Hub, p),
		addrs:   make([]string, p),
		servers: make([]*rpc.Server, p),
		inboxes: make([]*collective.ShmInbox, p),
	}
	for i := 0; i < p; i++ {
		h.hubs[i] = collective.NewHub()
		h.servers[i] = rpc.NewServer()
		h.servers[i].HandleStream(collective.StreamMethod, h.hubs[i].HandleStream)
		addr, err := h.servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h.addrs[i] = addr
		if shm {
			h.inboxes[i] = collective.NewShmInbox()
			collective.RegisterShm(addr, h.inboxes[i])
		}
	}
	t.Cleanup(func() {
		for i := 0; i < p; i++ {
			if h.inboxes[i] != nil {
				collective.UnregisterShm(h.addrs[i], h.inboxes[i])
				h.inboxes[i].Close()
			}
			h.servers[i].Close()
		}
	})
	return h
}

func (h *epochHarness) transport(t *testing.T, rank int, epoch uint64) *collective.NetTransport {
	t.Helper()
	tr, err := collective.NewNetTransport("elastic", rank, h.addrs, h.hubs[rank], 3*time.Second, epoch, collective.TransportConfig{})
	if err != nil {
		t.Fatalf("rank %d epoch %d: %v", rank, epoch, err)
	}
	return tr
}

// relay pushes one chunk sender→receiver and checks it lands intact.
func relay(t *testing.T, send, recv *collective.NetTransport, key string, tg uint64) {
	t.Helper()
	in := randVec(tg, 64)
	if err := send.Send(recv.Rank(), key, tg, in); err != nil {
		t.Fatalf("send %q: %v", key, err)
	}
	got, err := recv.Recv(send.Rank(), key, tg)
	if err != nil {
		t.Fatalf("recv %q: %v", key, err)
	}
	requireSameF64(t, key, in, got)
}

// TestEpochSupersede drives the full zombie scenario over every networked
// fabric: a group re-forms at a higher epoch while the old incarnation's
// endpoints are still alive. The old receiver must fail fast and typed, the
// old sender must get the typed rejection (not a hang, not silent delivery
// into the new group), a stale re-init must be refused at construction, and
// the superseded endpoints' Close must leave the new incarnation untouched.
func TestEpochSupersede(t *testing.T) {
	variants := []struct {
		name string
		shm  bool
	}{
		{name: "stream"},
		{name: "shm", shm: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if v.shm {
				skipIfNoShm(t)
			}
			h := newEpochHarness(t, 2, v.shm)
			old0 := h.transport(t, 0, 1)
			old1 := h.transport(t, 1, 1)
			relay(t, old0, old1, "gen1", 1)

			// The group re-forms at epoch 2 on both tasks.
			new0 := h.transport(t, 0, 2)
			new1 := h.transport(t, 1, 2)
			defer new0.Close()
			defer new1.Close()

			// Old receiver: fail fast with the typed value, not a timeout.
			start := time.Now()
			_, err := old1.Recv(0, "gen1", 2)
			var se *collective.StaleEpochError
			if !errors.As(err, &se) || se.Have != 1 || se.Current != 2 {
				t.Fatalf("superseded recv: %v, want typed stale-epoch 1->2", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("superseded recv took %v — it waited out a timeout instead of failing fast", d)
			}

			// Zombie sender: the rejection crosses the fabric. Streaming edges
			// buffer, so the first few sends may land in flight before the
			// reset text bounces back — loop until the error surfaces.
			err = nil
			for i := 0; i < 100 && err == nil; i++ {
				err = old0.Send(1, "zombie", uint64(i), randVec(9, 64))
				time.Sleep(time.Millisecond)
			}
			if !collective.IsStaleEpoch(err) {
				t.Fatalf("zombie send: %v, want stale-epoch rejection", err)
			}

			// Re-initialising at the dead epoch is refused at construction.
			if _, err := collective.NewNetTransport("elastic", 1, h.addrs, h.hubs[1], time.Second, 1, collective.TransportConfig{}); !collective.IsStaleEpoch(err) {
				t.Fatalf("stale re-init: %v, want stale-epoch", err)
			}

			// The new incarnation is untouched by all of the above, and by the
			// zombies' Close (epoch-gated group teardown).
			relay(t, new0, new1, "gen2", 7)
			old0.Close()
			old1.Close()
			relay(t, new1, new0, "gen2-after-close", 8)
		})
	}
}

// TestFaultRecvDrop: a rank dying while blocked on inbound traffic (recv-side
// drop) must error on every rank, not hang the survivors.
func TestFaultRecvDrop(t *testing.T) {
	p, n := 3, 2048
	plans := plansFor(p, simnet.NewFaultPlan())
	plans[1].RecvDropRank = 1
	plans[1].RecvDropAfter = 1
	groups := faultyGroups(p, plans, collective.Options{ChunkBytes: 512, Algorithm: collective.AlgoRing})
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		ins[r] = randVec(uint64(r+29), n)
	}
	done := make(chan []error, 1)
	go func() {
		_, errs := runAllErr(groups, func(g *collective.Group) (*tensor.Tensor, error) {
			return g.AllReduce("rdrop", ins[g.Rank()], collective.OpSum)
		})
		done <- errs
	}()
	select {
	case errs := <-done:
		for r, err := range errs {
			if err == nil {
				t.Fatalf("rank %d: no error despite recv-side drop", r)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recv-side drop hung the collective")
	}
}
