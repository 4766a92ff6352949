package collective

import "sync"

// Co-located peers. When two ranks of a group live in one process — the
// default in tests, benchmarks, and packed single-node deployments — a chunk
// need not cross the loopback TCP stack at all: the sending edge copies it
// into a pooled tensor and lands it straight in the receiving task's hub,
// the same handoff a rank makes to itself. Delivery keeps the network edges'
// semantics: ordered per-sender lanes, unbounded buffering, and the hub's
// epoch fence, so a send to a superseded or closed incarnation fails.
//
// Discovery is by address: a task registers its hub under every address it
// answers on (RegisterShm, done by cluster.Server); a transport whose own
// and peer addresses both resolve in the registry wires a local edge
// instead of dialing. Setting TFHPC_NO_SHM=1 disables co-located edges
// process-wide.

// ShmInbox is the hub a task registers for its co-located peers. It is Hub
// under the name the benchmark module compiles against.
type ShmInbox = Hub

// NewShmInbox returns an empty hub to register with RegisterShm.
func NewShmInbox() *ShmInbox { return NewHub() }

// Process-global address registry: addr → hub of the task answering there.
var shmReg = struct {
	mu sync.Mutex
	m  map[string]*Hub
}{m: make(map[string]*Hub)}

// RegisterShm publishes hub as the inbox co-located peers deliver to for
// addr. Transports constructed in this process hand chunks for addr to hub
// instead of dialing it. Register every address a task answers on (bound
// and advertised forms).
func RegisterShm(addr string, hub *Hub) {
	shmReg.mu.Lock()
	shmReg.m[addr] = hub
	shmReg.mu.Unlock()
}

// UnregisterShm removes addr's registration if it still points at hub.
func UnregisterShm(addr string, hub *Hub) {
	shmReg.mu.Lock()
	if shmReg.m[addr] == hub {
		delete(shmReg.m, addr)
	}
	shmReg.mu.Unlock()
}

func lookupShm(addr string) *Hub {
	shmReg.mu.Lock()
	hub := shmReg.m[addr]
	shmReg.mu.Unlock()
	return hub
}
