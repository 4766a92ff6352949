// Package bench regenerates every table and figure of the paper's
// evaluation section on the virtual platform and renders them as the same
// rows/series the paper reports. cmd/tfbench and the repository-level
// benchmarks are thin wrappers around these functions. Nothing here times
// the host: that is benchmark/'s job.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"tfhpc/apps/cg"
	appfft "tfhpc/apps/fft"
	"tfhpc/apps/matmul"
	"tfhpc/apps/stream"
	"tfhpc/internal/hw"
)

// TableI renders the paper's Table I from the hardware catalogue.
func TableI() string {
	var sb strings.Builder
	sb.WriteString("Table I: TensorFlow instances per node\n")
	sb.WriteString(fmt.Sprintf("%-18s %-14s %s\n", "Type of Node", "GPU Memory", "No. processes per node"))
	rows := []struct {
		cluster *hw.Cluster
		node    string
		mem     string
	}{
		{hw.Tegner, "k420", "1GB"},
		{hw.Tegner, "k80", "12GB x2"},
		{hw.Kebnekaise, "k80", "12GB x2"},
		{hw.Kebnekaise, "v100", "16GB"},
	}
	for _, r := range rows {
		nt := r.cluster.NodeTypes[r.node]
		sb.WriteString(fmt.Sprintf("%-18s %-14s %d\n", nt.Name, r.mem, nt.InstancesPerNode))
	}
	return sb.String()
}

// Fig7 renders the STREAM bandwidth comparison (MB/s per protocol,
// platform and transfer size).
func Fig7() (string, error) {
	rows, err := stream.Fig7()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig. 7: STREAM bandwidth between two nodes [MB/s]\n")
	sb.WriteString(fmt.Sprintf("%-8s %-16s %10s %10s %10s\n", "proto", "platform", "2MB", "16MB", "128MB"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-8s %-16s %10.0f %10.0f %10.0f\n",
			r.Protocol, r.Label, r.MBps[2<<20], r.MBps[16<<20], r.MBps[128<<20]))
	}
	return sb.String(), nil
}

// Fig8 renders the tiled matmul strong-scaling curves (Gflop/s).
func Fig8() (string, error) {
	curves, err := matmul.Fig8()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig. 8: Tiled matrix multiplication, 2 reducers + N GPUs [Gflop/s]\n")
	sb.WriteString(fmt.Sprintf("%-16s %-7s %-6s", "platform", "size", "tile"))
	for _, g := range []int{2, 4, 8, 16} {
		sb.WriteString(fmt.Sprintf(" %8s", fmt.Sprintf("2+%d", g)))
	}
	sb.WriteString("\n")
	for _, c := range curves {
		sb.WriteString(fmt.Sprintf("%-16s %-7s %-6d", c.Platform, sizeLabel(c.N), c.Tile))
		byGPU := map[int]float64{}
		for _, p := range c.Points {
			byGPU[p.GPUs] = p.Gflops
		}
		for _, g := range []int{2, 4, 8, 16} {
			if v, ok := byGPU[g]; ok {
				sb.WriteString(fmt.Sprintf(" %8.0f", v))
			} else {
				sb.WriteString(fmt.Sprintf(" %8s", "-"))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// Fig9 renders the Kebnekaise GPU node topology.
func Fig9() string {
	return "Fig. 9: Topology of a GPU node on Kebnekaise\n" +
		hw.Kebnekaise.NodeTypes["k80"].TopologyString()
}

// Fig10 renders the CG solver strong-scaling curves (Gflop/s).
func Fig10() (string, error) {
	curves, err := cg.Fig10()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig. 10: CG solver, 500 iterations, fp64 [Gflop/s]\n")
	sb.WriteString(fmt.Sprintf("%-16s %-7s", "platform", "size"))
	for _, g := range []int{2, 4, 8, 16} {
		sb.WriteString(fmt.Sprintf(" %8d", g))
	}
	sb.WriteString("\n")
	for _, c := range curves {
		sb.WriteString(fmt.Sprintf("%-16s %-7s", c.Platform, sizeLabel(c.N)))
		byGPU := map[int]float64{}
		for _, p := range c.Points {
			byGPU[p.GPUs] = p.Gflops
		}
		var gpus []int
		for g := range c.Skipped {
			gpus = append(gpus, g)
		}
		sort.Ints(gpus)
		for _, g := range []int{2, 4, 8, 16} {
			if v, ok := byGPU[g]; ok {
				sb.WriteString(fmt.Sprintf(" %8.0f", v))
			} else if _, skipped := c.Skipped[g]; skipped {
				sb.WriteString(fmt.Sprintf(" %8s", "OOM"))
			} else {
				sb.WriteString(fmt.Sprintf(" %8s", "-"))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// Fig11 renders the FFT scaling curves (Gflop/s, timed to tile collection).
func Fig11() (string, error) {
	curves, err := appfft.Fig11()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig. 11: 1-D FFT, 1 merger + N GPUs [Gflop/s]\n")
	sb.WriteString(fmt.Sprintf("%-16s %-8s %-7s", "platform", "size", "tiles"))
	for _, g := range []int{2, 4, 8} {
		sb.WriteString(fmt.Sprintf(" %8s", fmt.Sprintf("1+%d", g)))
	}
	sb.WriteString("\n")
	for _, c := range curves {
		sb.WriteString(fmt.Sprintf("%-16s 2^%-6d %-7d", c.Platform, log2(c.N), c.Tiles))
		for _, p := range c.Points {
			sb.WriteString(fmt.Sprintf(" %8.1f", p.Gflops))
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func sizeLabel(n int) string {
	switch n {
	case 16384:
		return "16k"
	case 32768:
		return "32k"
	case 65536:
		return "65k"
	}
	return fmt.Sprint(n)
}

func log2(n int) int {
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	return k
}
