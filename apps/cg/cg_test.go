package cg

import (
	"math"
	"path/filepath"
	"testing"

	"tfhpc/internal/hw"
	"tfhpc/internal/ops"
	"tfhpc/internal/tensor"
)

func residualNorm(t *testing.T, a, x, b *tensor.Tensor) float64 {
	t.Helper()
	ax, err := ops.Run("MatVec", &ops.Context{}, []*tensor.Tensor{a, x})
	if err != nil {
		t.Fatal(err)
	}
	var rr float64
	for i, v := range ax.F64() {
		d := b.F64()[i] - v
		rr += d * d
	}
	return math.Sqrt(rr)
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{N: 64, Workers: 4, MaxIters: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{N: 64, Workers: 5, MaxIters: 10},
		{N: 0, Workers: 1, MaxIters: 10},
		{N: 64, Workers: 1, MaxIters: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
}

func TestSPDMatrixIsSymmetricDominant(t *testing.T) {
	n := 32
	a := SPDMatrix(n, 1)
	d := a.F64()
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if d[i*n+j] != d[j*n+i] {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
			if i != j {
				off += math.Abs(d[i*n+j])
			}
		}
		if d[i*n+i] <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestSolvesSPDSystem(t *testing.T) {
	cfg := Config{N: 128, Workers: 4, MaxIters: 200, Tol: 1e-9}
	a := SPDMatrix(cfg.N, 7)
	b := tensor.RandomUniform(tensor.Float64, 8, cfg.N)
	res, err := RunReal(cfg, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(t, a, res.X, b); rn > 1e-7 {
		t.Fatalf("‖b - Ax‖ = %g after %d iters", rn, res.Iters)
	}
	if res.Iters >= cfg.MaxIters {
		t.Fatalf("did not converge early: %d iters", res.Iters)
	}
	if res.Gflops <= 0 {
		t.Fatal("no performance reported")
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	// The distributed answer must not depend on the decomposition.
	cfg1 := Config{N: 64, Workers: 1, MaxIters: 100, Tol: 1e-10}
	cfg4 := Config{N: 64, Workers: 4, MaxIters: 100, Tol: 1e-10}
	a := SPDMatrix(64, 3)
	b := tensor.RandomUniform(tensor.Float64, 4, 64)
	r1, err := RunReal(cfg1, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunReal(cfg4, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.X.ApproxEqual(r4.X, 1e-6) {
		t.Fatal("1-worker and 4-worker solutions disagree")
	}
}

// TestExactSolutionStopsWithoutTol solves 2·I·x = 1 with Tol 0: the first
// iteration lands on x = 1/2 exactly with ‖r‖² = 0, and the solve must stop
// there rather than run on into α = 0/0.
func TestExactSolutionStopsWithoutTol(t *testing.T) {
	const n = 8
	a := tensor.New(tensor.Float64, n, n)
	b := tensor.New(tensor.Float64, n)
	for i := 0; i < n; i++ {
		a.F64()[i*n+i] = 2
		b.F64()[i] = 1
	}
	res, err := RunReal(Config{N: n, Workers: 2, MaxIters: 5}, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X.F64() {
		if v != 0.5 {
			t.Fatalf("x[%d] = %v, want 0.5 (x = %v)", i, v, res.X.F64())
		}
	}
	if res.Iters != 1 || res.ResidualNorm != 0 {
		t.Fatalf("stopped after %d iterations at residual %g, want 1 and 0", res.Iters, res.ResidualNorm)
	}
}

func TestResidualDecreasesMonotonically(t *testing.T) {
	// With a fixed iteration budget and no tolerance, the reported residual
	// after k iterations should shrink as k grows.
	a := SPDMatrix(64, 9)
	b := tensor.RandomUniform(tensor.Float64, 10, 64)
	var prev float64 = math.Inf(1)
	for _, iters := range []int{2, 5, 10, 20} {
		res, err := RunReal(Config{N: 64, Workers: 2, MaxIters: iters}, a, b, RealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ResidualNorm >= prev {
			t.Fatalf("residual did not decrease: %g after %d iters (prev %g)",
				res.ResidualNorm, iters, prev)
		}
		prev = res.ResidualNorm
	}
}

func TestCheckpointRestartMatchesContinuousRun(t *testing.T) {
	cfg := Config{N: 64, Workers: 2, MaxIters: 20}
	a := SPDMatrix(cfg.N, 11)
	b := tensor.RandomUniform(tensor.Float64, 12, cfg.N)

	// Continuous 20-iteration run.
	full, err := RunReal(cfg, a, b, RealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 10 iterations, checkpoint, then resume for the remaining 10.
	ckPath := filepath.Join(t.TempDir(), "cg.ckpt")
	half := cfg
	half.MaxIters = 10
	if _, err := RunReal(half, a, b, RealOptions{CheckpointPath: ckPath}); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunReal(cfg, a, b, RealOptions{CheckpointPath: ckPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iters != 20 {
		t.Fatalf("resumed run ended at iter %d, want 20", resumed.Iters)
	}
	if !full.X.ApproxEqual(resumed.X, 1e-9) {
		t.Fatal("restart diverged from the continuous run")
	}
}

func TestCheckpointGraphMismatchRejected(t *testing.T) {
	cfg := Config{N: 64, Workers: 2, MaxIters: 5}
	a := SPDMatrix(cfg.N, 13)
	b := tensor.RandomUniform(tensor.Float64, 14, cfg.N)
	ckPath := filepath.Join(t.TempDir(), "cg.ckpt")
	if _, err := RunReal(cfg, a, b, RealOptions{CheckpointPath: ckPath}); err != nil {
		t.Fatal(err)
	}
	other := Config{N: 64, Workers: 4, MaxIters: 5}
	if _, err := RunReal(other, a, b, RealOptions{CheckpointPath: ckPath, Resume: true}); err == nil {
		t.Fatal("resuming with a different decomposition should fail")
	}
}

func TestSimMemoryLimits(t *testing.T) {
	// 65536² fp64 (34 GB) cannot fit 2 K80 engines (12 GB each) — the gap
	// in the paper's Fig. 10.
	_, err := RunSim(SimConfig{
		Cluster: hw.Kebnekaise, NodeType: hw.Kebnekaise.NodeTypes["k80"],
		N: 65536, GPUs: 2, Iters: 500,
	})
	if err == nil {
		t.Fatal("65k on 2 K80s should be out of memory")
	}
	// It fits at 8 GPUs, as the paper reports.
	if _, err := RunSim(SimConfig{
		Cluster: hw.Kebnekaise, NodeType: hw.Kebnekaise.NodeTypes["k80"],
		N: 65536, GPUs: 8, Iters: 500,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSimFig10Ratios(t *testing.T) {
	run := func(c *hw.Cluster, node string, n, gpus int) float64 {
		res, err := RunSim(SimConfig{Cluster: c, NodeType: c.NodeTypes[node], N: n, GPUs: gpus, Iters: 500})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gflops
	}
	// Kebnekaise K80 32k: 1.6x (2->4), ~1.3x (4->8) per the paper.
	k2 := run(hw.Kebnekaise, "k80", 32768, 2)
	k4 := run(hw.Kebnekaise, "k80", 32768, 4)
	k8 := run(hw.Kebnekaise, "k80", 32768, 8)
	if r := k4 / k2; r < 1.4 || r > 1.75 {
		t.Fatalf("Kebnekaise K80 2->4 = %.2f, paper ~1.6", r)
	}
	if r := k8 / k4; r < 1.2 || r > 1.55 {
		t.Fatalf("Kebnekaise K80 4->8 = %.2f, paper ~1.3", r)
	}
	// Tegner K80 32k: ~1.74x (2->4).
	t2 := run(hw.Tegner, "k80", 32768, 2)
	t4 := run(hw.Tegner, "k80", 32768, 4)
	if r := t4 / t2; r < 1.6 || r > 1.9 {
		t.Fatalf("Tegner K80 2->4 = %.2f, paper ~1.74", r)
	}
	// V100 32k: modest 1.26x / 1.16x — the GPU is underutilised.
	v2 := run(hw.Kebnekaise, "v100", 32768, 2)
	v4 := run(hw.Kebnekaise, "v100", 32768, 4)
	v8 := run(hw.Kebnekaise, "v100", 32768, 8)
	if r := v4 / v2; r < 1.15 || r > 1.45 {
		t.Fatalf("V100 2->4 = %.2f, paper ~1.26", r)
	}
	if r := v8 / v4; r < 1.02 || r > 1.3 {
		t.Fatalf("V100 4->8 = %.2f, paper ~1.16", r)
	}
	// Eight V100s deliver over ~300 Gflop/s (paper's headline comparison).
	if v8 < 270 || v8 > 360 {
		t.Fatalf("8xV100 = %.0f Gflop/s, paper reports >300", v8)
	}
	// 16k barely scales anywhere (underutilisation).
	s2 := run(hw.Kebnekaise, "v100", 16384, 2)
	s8 := run(hw.Kebnekaise, "v100", 16384, 8)
	if r := s8 / s2; r > 1.25 {
		t.Fatalf("16k scaled %.2f on V100; paper sees little scaling", r)
	}
}

func TestFig10CurvesComplete(t *testing.T) {
	curves, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 7 {
		t.Fatalf("curve count %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points)+len(c.Skipped) == 0 {
			t.Fatalf("%s N=%d empty", c.Platform, c.N)
		}
	}
	// The 65k Kebnekaise curve must skip 2 and 4 GPUs for memory.
	for _, c := range curves {
		if c.Platform == "Kebnekaise K80" && c.N == 65536 {
			if _, ok := c.Skipped[2]; !ok {
				t.Fatal("65k should be skipped at 2 GPUs")
			}
			if _, ok := c.Skipped[4]; !ok {
				t.Fatal("65k should be skipped at 4 GPUs")
			}
			if len(c.Points) != 2 {
				t.Fatalf("65k should have 8- and 16-GPU points, got %d", len(c.Points))
			}
		}
	}
}
