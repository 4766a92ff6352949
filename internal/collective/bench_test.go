package collective_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tfhpc/internal/collective"
	"tfhpc/internal/rpc"
	"tfhpc/internal/tensor"
)

func benchAllReduce(b *testing.B, naive bool) {
	const p, n = 4, 1 << 20
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i + r) % 97)
		}
		ins[r] = tensor.FromF64(tensor.Shape{n}, v)
	}
	b.SetBytes(int64(2 * (p - 1) * n * 8 / p))
	b.ResetTimer()
	for rep := 0; rep < b.N; rep++ {
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				key := fmt.Sprintf("bench%d", rep)
				if naive {
					_, errs[r] = groups[r].NaiveAllReduce(key, ins[r], collective.OpSum)
				} else {
					_, errs[r] = groups[r].AllReduce(key, ins[r], collective.OpSum)
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRingAllReduce(b *testing.B)  { benchAllReduce(b, false) }
func BenchmarkNaiveAllReduce(b *testing.B) { benchAllReduce(b, true) }

// BenchmarkDoublingAllReduceSmall is the latency-bound regime the picker
// routes to recursive doubling: a tiny per-rank payload where the ring's
// 2(p−1) steps dominate.
func BenchmarkDoublingAllReduceSmall(b *testing.B) {
	const p, n = 4, 512
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i + r) % 97)
		}
		ins[r] = tensor.FromF64(tensor.Shape{n}, v)
	}
	b.SetBytes(int64(2 * (p - 1) * n * 8 / p))
	b.ResetTimer()
	for rep := 0; rep < b.N; rep++ {
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, errs[r] = groups[r].AllReduceAlg(fmt.Sprintf("bench%d", rep), ins[r],
					collective.OpSum, collective.AlgoDoubling)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamAllReduceSmall is the allreduce workload's gated
// operation under go test: a 1 KiB (recursive doubling) allreduce between 2
// ranks whose edges are rpc streams through real servers on 127.0.0.1, each
// rank calling back to back on its own goroutine.
func BenchmarkStreamAllReduceSmall(b *testing.B) {
	const p, n = 2, 128
	hubs := make([]*collective.Hub, p)
	addrs := make([]string, p)
	for i := range hubs {
		hubs[i] = collective.NewHub()
		srv := rpc.NewServer()
		srv.HandleStream(collective.StreamMethod, hubs[i].HandleStream)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	groups := make([]*collective.Group, p)
	ins := make([]*tensor.Tensor, p)
	for r := range groups {
		tr, err := collective.NewNetTransport("bench", r, addrs, hubs[r], 30*time.Second, 1,
			collective.TransportConfig{DisableShm: true})
		if err != nil {
			b.Fatal(err)
		}
		groups[r] = collective.NewGroup(tr, collective.Options{})
		defer groups[r].Close()
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i + r) % 97)
		}
		ins[r] = tensor.FromF64(tensor.Shape{n}, v)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := range groups {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N && errs[r] == nil; i++ {
				_, errs[r] = groups[r].AllReduce("small", ins[r], collective.OpSum)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedAllReduce posts K small tensors per rank through the fusion
// buffer per iteration — the multi-parameter-tensor SGD shape.
func BenchmarkFusedAllReduce(b *testing.B) {
	const p, K, n = 4, 16, 128
	groups := collective.NewLoopbackGroups(p, collective.Options{
		Fusion: collective.FusionOptions{FlushTensors: K},
	})
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((i + r) % 97)
		}
		ins[r] = tensor.FromF64(tensor.Shape{n}, v)
	}
	b.SetBytes(int64(2 * (p - 1) * K * n * 8 / p))
	b.ResetTimer()
	for rep := 0; rep < b.N; rep++ {
		var wg sync.WaitGroup
		errs := make([]error, p*K)
		for r := 0; r < p; r++ {
			for k := 0; k < K; k++ {
				wg.Add(1)
				go func(r, k int) {
					defer wg.Done()
					_, errs[r*K+k] = groups[r].AllReduceFused(
						fmt.Sprintf("bench%d/%d", rep, k), ins[r], collective.OpSum)
				}(r, k)
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRingAllGather(b *testing.B) {
	const p, n = 4, 1 << 18
	groups := collective.NewLoopbackGroups(p, collective.Options{})
	ins := make([]*tensor.Tensor, p)
	for r := range ins {
		ins[r] = tensor.New(tensor.Float64, n)
	}
	b.SetBytes(int64((p - 1) * n * 8))
	b.ResetTimer()
	for rep := 0; rep < b.N; rep++ {
		var wg sync.WaitGroup
		errs := make([]error, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, errs[r] = groups[r].AllGather(fmt.Sprintf("bench%d", rep), ins[r])
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
