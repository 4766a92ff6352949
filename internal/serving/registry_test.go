package serving

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfhpc/internal/tensor"
)

// constWeights is a weight vector of d copies of v — version v's prediction
// of the all-ones row is exactly d*v, so any torn mix of two versions'
// weights produces a value outside the valid set and is caught.
func constWeights(d int, v float64) *tensor.Tensor {
	w := make([]float64, d)
	for i := range w {
		w[i] = v
	}
	return tensor.FromF64(tensor.Shape{d}, w)
}

// TestHotSwapUnderLoad is the checkpoint-hot-swap contract: concurrent
// Predict traffic while the registry swaps versions must never see torn
// weights and never drop an in-flight request. Run under -race this also
// proves the swap path is data-race-free.
func TestHotSwapUnderLoad(t *testing.T) {
	const (
		d        = 64
		clients  = 8
		versions = 12
	)
	svc := NewService(NewRegistry(), BatchOptions{MaxBatch: 8})
	defer svc.Close()
	mv, err := NewLinear("m", 1, constWeights(d, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ServeModel(mv); err != nil {
		t.Fatal(err)
	}

	ones := constWeights(d, 1) // the all-ones feature row
	valid := make(map[float64]int)
	for v := 1; v <= versions; v++ {
		valid[float64(d*v)] = v
	}

	var stop atomic.Bool
	var predicts atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				out, err := svc.Predict("m", ones, time.Now().Add(5*time.Second))
				if err != nil {
					errCh <- err
					return
				}
				if _, ok := valid[out.F64()[0]]; !ok {
					t.Errorf("torn or corrupt prediction %v (valid: multiples of %d)", out.F64()[0], d)
					errCh <- nil
					return
				}
				predicts.Add(1)
			}
		}()
	}

	// waitProgress interleaves swaps with real traffic: each swap only
	// fires after more predictions have completed, so retired versions
	// genuinely drain under load.
	waitProgress := func(n int64) {
		target := predicts.Load() + n
		deadline := time.Now().Add(10 * time.Second)
		for predicts.Load() < target {
			if time.Now().After(deadline) {
				t.Fatal("prediction traffic stalled")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Swap through the versions under full traffic, awaiting each retired
	// version's drain: a drain that never completes is a leaked ref.
	for v := 2; v <= versions; v++ {
		waitProgress(25)
		mv, err := NewLinear("m", v, constWeights(d, float64(v)))
		if err != nil {
			t.Fatal(err)
		}
		old, err := svc.ServeModel(mv)
		if err != nil {
			t.Fatal(err)
		}
		if old == nil {
			t.Fatal("swap returned no previous version")
		}
		select {
		case <-old.Drained():
		case <-time.After(10 * time.Second):
			t.Fatalf("version %d did not drain under load", old.Version())
		}
		if st := old.State(); st != "unloaded" {
			t.Fatalf("drained version state %q, want unloaded", st)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("predict failed during swaps: %v", err)
		}
	}
	if predicts.Load() == 0 {
		t.Fatal("no predictions completed during the swap storm")
	}

	// After the last swap, traffic must land on the final version.
	out, err := svc.Predict("m", ones, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.F64()[0], float64(d*versions); got != want {
		t.Fatalf("post-swap prediction %v, want %v", got, want)
	}
	snap := svc.Snapshots()[0]
	if snap.Swaps != versions-1 {
		t.Fatalf("swap counter %d, want %d", snap.Swaps, versions-1)
	}
	if snap.Version != versions {
		t.Fatalf("active version %d, want %d", snap.Version, versions)
	}
}

func TestRegistryAcquireDuringSwapRace(t *testing.T) {
	reg := NewRegistry()
	const d = 8
	mv1, _ := NewLinear("m", 1, constWeights(d, 1))
	reg.Serve(mv1)

	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; !stop.Load(); v++ {
			mv, _ := NewLinear("m", v, constWeights(d, float64(v)))
			reg.Serve(mv)
		}
	}()
	for i := 0; i < 2000; i++ {
		mv, err := reg.acquireRef("m")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if mv.State() == "unloaded" {
			t.Fatalf("acquired an unloaded version")
		}
		mv.release()
	}
	stop.Store(true)
	wg.Wait()
}

func TestUnloadDrains(t *testing.T) {
	reg := NewRegistry()
	mv, _ := NewLinear("m", 1, constWeights(4, 1))
	reg.Serve(mv)
	got, err := reg.acquireRef("m")
	if err != nil {
		t.Fatal(err)
	}
	old := reg.Unload("m")
	if old != got {
		t.Fatal("unload returned a different version")
	}
	select {
	case <-old.Drained():
		t.Fatal("drained while a ref was held")
	case <-time.After(20 * time.Millisecond):
	}
	got.release()
	select {
	case <-old.Drained():
	case <-time.After(time.Second):
		t.Fatal("drain did not complete after release")
	}
	if _, err := reg.acquireRef("m"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound after unload, got %v", err)
	}
}
