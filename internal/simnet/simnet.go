// Package simnet models the three tensor-transfer protocols the paper
// benchmarks with its STREAM application — gRPC, MPI and InfiniBand Verbs
// RDMA — on top of the hardware catalogue in internal/hw. Each transfer is
// decomposed into the staging hops the real stacks take, and each hop is a
// (latency, bandwidth) segment; the slowest segment pipeline-limits the
// sustained rate while setup latencies add up.
//
// The decompositions follow Section VI.A of the paper:
//
//   - RDMA (verbs): GPU tensors are staged over PCIe to registered host
//     buffers (GPUDirect is unavailable on both platforms, as in the paper),
//     then the HCA moves them at RDMAEff × wire bandwidth.
//   - MPI: the TensorFlow MPI module first copies and *serializes* tensors
//     into host protobufs (the paper's explanation for its low rates), then
//     sends over the fabric.
//   - gRPC: serialization plus whatever network gRPC resolves to — gigabit
//     Ethernet on Tegner, IPoIB on Kebnekaise (again matching the paper).
package simnet

import (
	"fmt"

	"tfhpc/internal/hw"
)

// Protocol selects the tensor transport, mirroring the paper's three builds.
type Protocol int

const (
	GRPC Protocol = iota
	MPI
	RDMA
	// SHM models a same-host shared-memory byte ring: sender memcpy into
	// the ring, receiver memcpy out. The copies pipeline through the ring
	// but share the node's memory system.
	SHM
	// SHMDirect is the RDMA-style zero-copy variant: the payload is handed
	// over by mapping, one effective traversal of host memory bandwidth —
	// the same single-copy discipline the verbs path applies to the wire.
	// The real transport tier's co-located edge is this path: one pooled
	// copy handed to the peer's hub.
	SHMDirect
)

var protoNames = [...]string{"grpc", "mpi", "rdma", "shm", "shmdirect"}

func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol converts a flag value into a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for i, n := range protoNames {
		if n == s {
			return Protocol(i), nil
		}
	}
	return 0, fmt.Errorf("simnet: unknown protocol %q (want grpc|mpi|rdma|shm|shmdirect)", s)
}

// Placement says which memory a tensor endpoint lives in.
type Placement int

const (
	OnCPU Placement = iota
	OnGPU
)

func (p Placement) String() string {
	if p == OnGPU {
		return "GPU"
	}
	return "CPU"
}

// Segment is one hop of a transfer path.
type Segment struct {
	Name    string
	Latency float64 // seconds of setup
	BW      float64 // bytes/s sustained
}

// Path is an ordered list of segments between two tensors.
type Path []Segment

// PipelinedTime returns the duration for moving n bytes when hops overlap
// (chunked staging, as the verbs module does): the sum of hop latencies plus
// n divided by the bottleneck bandwidth.
func (p Path) PipelinedTime(n int64) float64 {
	if len(p) == 0 {
		return 0
	}
	lat := 0.0
	bottleneck := p[0].BW
	for _, s := range p {
		lat += s.Latency
		if s.BW < bottleneck {
			bottleneck = s.BW
		}
	}
	return lat + float64(n)/bottleneck
}

// SerialTime returns the duration when each hop must finish before the next
// starts (store-and-forward, as the MPI and gRPC modules behave: the full
// tensor is copied off the GPU, fully serialized into a protobuf, then
// sent): the sum over hops of latency + n/bandwidth.
func (p Path) SerialTime(n int64) float64 {
	t := 0.0
	for _, s := range p {
		t += s.Latency + float64(n)/s.BW
	}
	return t
}

// Bottleneck returns the slowest segment's bandwidth.
func (p Path) Bottleneck() float64 {
	if len(p) == 0 {
		return 0
	}
	b := p[0].BW
	for _, s := range p {
		if s.BW < b {
			b = s.BW
		}
	}
	return b
}

// TransferPath builds the hop list for moving one tensor between two nodes
// of the given type on the given cluster with the given protocol. src and
// dst say whether each endpoint tensor lives in GPU or host memory.
func TransferPath(c *hw.Cluster, nt *hw.NodeType, proto Protocol, src, dst Placement) Path {
	var path Path

	stageOut := func(tag string) {
		path = append(path, Segment{
			Name:    tag + " PCIe D2H",
			Latency: 10e-6,
			BW:      nt.GPU.PCIeBW,
		})
	}
	stageIn := func(tag string) {
		path = append(path, Segment{
			Name:    tag + " PCIe H2D",
			Latency: 10e-6,
			BW:      nt.GPU.PCIeBW,
		})
	}

	switch proto {
	case SHM:
		if src == OnGPU {
			stageOut("src")
		}
		// Both ring copies run concurrently in steady state and contend for
		// the one memory controller, so each sustains about half the node's
		// memory bandwidth. Latency is a futex-style wakeup, not a NIC.
		path = append(path, Segment{
			Name:    "shm ring write",
			Latency: 1e-6,
			BW:      nt.HostMemBW / 2,
		})
		path = append(path, Segment{
			Name:    "shm ring read",
			Latency: 1e-6,
			BW:      nt.HostMemBW / 2,
		})
		if dst == OnGPU {
			stageIn("dst")
		}
	case SHMDirect:
		if src == OnGPU {
			stageOut("src")
		}
		path = append(path, Segment{
			Name:    "shm zero-copy handoff",
			Latency: 2e-6,
			BW:      nt.HostMemBW,
		})
		if dst == OnGPU {
			stageIn("dst")
		}
	case RDMA:
		if src == OnGPU {
			stageOut("src")
		}
		// The per-op latency covers the rendezvous the TF RDMA module runs
		// over its gRPC administrative channel before each tensor write.
		path = append(path, Segment{
			Name:    "verbs " + c.Wire.Name,
			Latency: c.Wire.Latency + 200e-6,
			BW:      c.RDMAEff * c.Wire.BW,
		})
		if dst == OnGPU {
			stageIn("dst")
		}
	case MPI:
		if src == OnGPU {
			stageOut("src")
		}
		// TensorFlow's MPI module copies + serializes through host memory
		// (the paper's stated reason GPU Direct rates are unreachable).
		path = append(path, Segment{
			Name:    "protobuf serialize",
			Latency: 40e-6,
			BW:      nt.SerializeBW,
		})
		path = append(path, Segment{
			Name:    "MPI over " + c.Wire.Name,
			Latency: c.Wire.Latency + 15e-6,
			BW:      0.85 * c.Wire.BW,
		})
		if dst == OnGPU {
			stageIn("dst")
		}
	case GRPC:
		if src == OnGPU {
			stageOut("src")
		}
		path = append(path, Segment{
			Name:    "protobuf serialize",
			Latency: 60e-6,
			BW:      nt.SerializeBW,
		})
		net := c.Ethernet
		path = append(path, Segment{
			Name:    "gRPC over " + net.Name,
			Latency: net.Latency + 100e-6,
			BW:      0.96 * net.BW,
		})
		if dst == OnGPU {
			stageIn("dst")
		}
	}
	return path
}

// TransferTime returns the modelled duration of one tensor transfer. RDMA
// and the shared-memory paths pipeline their hops (chunked staging through
// ring or registered buffers); MPI and gRPC are store-and-forward through
// host serialization buffers.
func TransferTime(c *hw.Cluster, nt *hw.NodeType, proto Protocol, src, dst Placement, bytes int64) float64 {
	p := TransferPath(c, nt, proto, src, dst)
	if proto == RDMA || proto == SHM || proto == SHMDirect {
		return p.PipelinedTime(bytes)
	}
	return p.SerialTime(bytes)
}

// BandwidthMBps converts (bytes, seconds) to the MB/s the paper reports
// (decimal megabytes).
func BandwidthMBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e6
}
