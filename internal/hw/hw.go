// Package hw is the hardware catalogue for the two evaluation platforms of
// the paper — the Tegner and Kebnekaise GPU clusters — and the performance
// models of their GPUs, interconnects and node topologies. All simulated
// durations in the virtual cluster derive from these numbers.
//
// The models are rooflines: a kernel is charged max(flops/FlopRate,
// bytes/MemBW); transfers are charged latency + bytes/bandwidth along every
// hop of the path (GPU→PCIe→host→NIC→wire). Values are calibrated against
// the paper's measured results (Figs. 7, 8, 10, 11) and public spec sheets;
// the apps' sim tests pin the calibrated scaling-ratio windows. We reproduce
// shapes — orderings, scaling ratios, saturation points — not silicon-exact
// numbers.
package hw

import "fmt"

// GPUModel describes one GPU engine (for K80 boards, one GK210 engine; the
// paper exposes engines to TensorFlow instances individually).
type GPUModel struct {
	Name     string
	MemBytes int64   // device memory capacity
	SPFlops  float64 // peak single-precision flop/s
	DPFlops  float64 // peak double-precision flop/s
	MemBW    float64 // device memory bandwidth, bytes/s
	GemmEff  float64 // fraction of peak a large GEMM sustains
	PCIeBW   float64 // effective host<->device staging bandwidth, bytes/s
}

// The three GPU generations used in the paper's evaluation.
var (
	// K420: the small Kepler board on some Tegner nodes; 1 GB of memory
	// forces the 4096² tile size used in the matmul experiments.
	K420 = GPUModel{
		Name:     "K420",
		MemBytes: 1 << 30,
		SPFlops:  300e9,
		DPFlops:  12.5e9,
		MemBW:    29e9,
		GemmEff:  0.70,
		PCIeBW:   1.35e9,
	}
	// GK210: one engine of a K80 board (each board carries two engines with
	// 12 GB each; the paper's "K80 GPU" always means one engine).
	GK210 = GPUModel{
		Name:     "GK210",
		MemBytes: 12 << 30,
		SPFlops:  2800e9,
		DPFlops:  935e9,
		MemBW:    240e9,
		GemmEff:  0.80,
		PCIeBW:   2.3e9,
	}
	// V100: Volta board on Kebnekaise V100 nodes.
	V100 = GPUModel{
		Name:     "V100",
		MemBytes: 16 << 30,
		SPFlops:  14000e9,
		DPFlops:  7000e9,
		MemBW:    900e9,
		GemmEff:  0.90,
		PCIeBW:   11e9,
	}
)

// GemmTime returns the modelled duration of an m×k by k×n GEMM in the given
// precision (flops = 2mkn), roofline-limited by compute and memory traffic.
func (g GPUModel) GemmTime(m, k, n int, dp bool) float64 {
	flops := 2 * float64(m) * float64(k) * float64(n)
	elem := 4.0
	rate := g.SPFlops
	if dp {
		elem = 8.0
		rate = g.DPFlops
	}
	bytes := elem * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
	tCompute := flops / (rate * g.GemmEff)
	tMem := bytes / g.MemBW
	if tMem > tCompute {
		return tMem
	}
	return tCompute
}

// MatVecTime returns the duration of an m×n matrix-vector product; dense
// matvec is memory-bandwidth bound on every GPU in the catalogue.
func (g GPUModel) MatVecTime(m, n int, dp bool) float64 {
	elem := 4.0
	rate := g.SPFlops
	if dp {
		elem = 8.0
		rate = g.DPFlops
	}
	bytes := elem * (float64(m)*float64(n) + float64(n) + float64(m))
	flops := 2 * float64(m) * float64(n)
	tMem := bytes / g.MemBW
	tCompute := flops / rate
	if tCompute > tMem {
		return tCompute
	}
	return tMem
}

// VectorOpTime returns the duration of a streaming vector kernel (axpy, dot,
// scale) touching the given number of bytes.
func (g GPUModel) VectorOpTime(bytes int64) float64 {
	return float64(bytes) / g.MemBW
}

// FFTTime returns the duration of an n-point complex-to-complex FFT in the
// given precision; FFTs are memory-bandwidth bound (each of the log n passes
// streams the whole array).
func (g GPUModel) FFTTime(n int, dp bool) float64 {
	if n <= 1 {
		return 0
	}
	elem := 8.0 // complex64
	if dp {
		elem = 16.0 // complex128
	}
	logN := 0
	for v := n; v > 1; v >>= 1 {
		logN++
	}
	// Each butterfly pass reads+writes the array; assume fused factor 0.5
	// (cuFFT-style multi-butterfly kernels).
	bytes := float64(logN) * 2 * elem * float64(n) * 0.5
	flops := 5 * float64(n) * float64(logN) // standard FFT flop count
	rate := g.SPFlops
	if dp {
		rate = g.DPFlops
	}
	tMem := bytes / g.MemBW
	tCompute := flops / rate
	if tCompute > tMem {
		return tCompute
	}
	return tMem
}

// PCIeTime returns the duration of a host<->device staging copy.
func (g GPUModel) PCIeTime(bytes int64) float64 {
	return 10e-6 + float64(bytes)/g.PCIeBW
}

// LinkModel describes an inter-node wire.
type LinkModel struct {
	Name    string
	BW      float64 // bytes/s raw signalling
	Latency float64 // one-way, seconds
}

// The interconnects of the two clusters.
var (
	EDRInfiniBand = LinkModel{Name: "EDR InfiniBand", BW: 12.5e9, Latency: 1.3e-6}
	FDRInfiniBand = LinkModel{Name: "FDR InfiniBand", BW: 7.0e9, Latency: 1.7e-6}
	GbEthernet    = LinkModel{Name: "1GbE Ethernet", BW: 117e6, Latency: 30e-6}
)

// NodeType describes a homogeneous family of compute nodes, including how
// many TensorFlow instances the paper runs on each (Table I).
type NodeType struct {
	Name             string
	GPU              GPUModel
	GPUEngines       int // visible GPU engines per node
	InstancesPerNode int // TensorFlow processes per node (Table I)
	HostMemBW        float64
	SerializeBW      float64 // host-side ProtoBuf copy/serialize throughput
	NUMAIslands      int
	NICIsland        int   // island wired to the IB HCA and other I/O (Fig. 9)
	GPUIslandOf      []int // island of each GPU engine
	FSReadBW         float64
}

// Cluster describes one evaluation platform.
type Cluster struct {
	Name      string
	Wire      LinkModel
	Ethernet  LinkModel // the network gRPC resolves to on this cluster
	RDMAEff   float64   // fraction of wire bandwidth verbs sustains
	GRPCOnIB  bool      // whether gRPC rides IPoIB (Kebnekaise) or Ethernet (Tegner)
	NodeTypes map[string]*NodeType
}

// Tegner models the PDC cluster: Haswell nodes, EDR fabric, gRPC falling
// back to gigabit Ethernet (the paper observed exactly this), K420 and K80
// node flavours.
var Tegner = &Cluster{
	Name:     "Tegner",
	Wire:     EDRInfiniBand,
	Ethernet: GbEthernet,
	RDMAEff:  0.52,
	GRPCOnIB: false,
	NodeTypes: map[string]*NodeType{
		"k420": {
			Name:             "Tegner-K420",
			GPU:              K420,
			GPUEngines:       1,
			InstancesPerNode: 1,
			HostMemBW:        60e9,
			SerializeBW:      0.64e9,
			NUMAIslands:      2,
			NICIsland:        0,
			GPUIslandOf:      []int{0},
			FSReadBW:         1.1e9,
		},
		"k80": {
			Name:             "Tegner-K80",
			GPU:              GK210,
			GPUEngines:       2,
			InstancesPerNode: 2,
			HostMemBW:        60e9,
			SerializeBW:      0.64e9,
			NUMAIslands:      2,
			NICIsland:        0,
			GPUIslandOf:      []int{0, 0},
			FSReadBW:         1.1e9,
		},
	},
}

// Kebnekaise models the HPC2N cluster: Broadwell nodes, FDR fabric, gRPC on
// IPoIB, K80 nodes carrying two boards (four engines) across two NUMA
// islands with all I/O attached to island 0 (Fig. 9), and V100 nodes.
var Kebnekaise = &Cluster{
	Name:     "Kebnekaise",
	Wire:     FDRInfiniBand,
	Ethernet: LinkModel{Name: "IPoIB", BW: 2.2e9, Latency: 15e-6},
	RDMAEff:  0.52,
	GRPCOnIB: true,
	NodeTypes: map[string]*NodeType{
		"k80": {
			Name:             "Kebnekaise-K80",
			GPU:              GK210,
			GPUEngines:       4, // two K80 boards, two GK210 engines each
			InstancesPerNode: 4,
			HostMemBW:        65e9,
			SerializeBW:      0.96e9,
			NUMAIslands:      2,
			NICIsland:        0,
			GPUIslandOf:      []int{0, 0, 1, 1}, // one board per island (Fig. 9)
			FSReadBW:         1.3e9,
		},
		// SerializeBW below reflects the Broadwell hosts' faster protobuf
		// path relative to Tegner's Haswells (calibrated to the paper's
		// 480 MB/s Kebnekaise GPU MPI measurement).
		"v100": {
			Name:             "Kebnekaise-V100",
			GPU:              V100,
			GPUEngines:       2,
			InstancesPerNode: 2,
			HostMemBW:        65e9,
			SerializeBW:      0.96e9,
			NUMAIslands:      2,
			NICIsland:        0,
			GPUIslandOf:      []int{0, 1},
			FSReadBW:         1.3e9,
		},
	},
}

// Clusters indexes both platforms by lower-case name.
var Clusters = map[string]*Cluster{
	"tegner":     Tegner,
	"kebnekaise": Kebnekaise,
}

// NodeTypeByName resolves "tegner/k420"-style identifiers.
func NodeTypeByName(cluster, node string) (*Cluster, *NodeType, error) {
	c, ok := Clusters[cluster]
	if !ok {
		return nil, nil, fmt.Errorf("hw: unknown cluster %q", cluster)
	}
	nt, ok := c.NodeTypes[node]
	if !ok {
		return nil, nil, fmt.Errorf("hw: cluster %q has no node type %q", cluster, node)
	}
	return c, nt, nil
}

// TopologyString renders the node's NUMA/PCIe layout in the style of Fig. 9.
func (nt *NodeType) TopologyString() string {
	s := fmt.Sprintf("%s: %d NUMA island(s), %d %s engine(s), NIC+I/O on island %d\n",
		nt.Name, nt.NUMAIslands, nt.GPUEngines, nt.GPU.Name, nt.NICIsland)
	for isle := 0; isle < nt.NUMAIslands; isle++ {
		s += fmt.Sprintf("  island %d:", isle)
		for g, gi := range nt.GPUIslandOf {
			if gi == isle {
				s += fmt.Sprintf(" %s(%d)", nt.GPU.Name, g)
			}
		}
		if isle == nt.NICIsland {
			s += " [InfiniBand, other I/O]"
		}
		s += "\n"
	}
	return s
}
