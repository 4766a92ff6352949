package cg

import (
	"testing"

	"tfhpc/internal/collective"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
)

// TestIterationAllocs pins the allocations of one warm single-worker
// iteration: the three Runs of driveWorker with their op outputs and
// collectives. The Assigns of q, x, r and p adopt their values and add
// none (the iteration made 126 when they copied).
func TestIterationAllocs(t *testing.T) {
	const want = 110
	cfg := Config{N: 64, Workers: 1, MaxIters: 1}
	res := session.NewResources()
	groups := collective.NewLoopbackGroups(1, collective.Options{})
	res.Colls.Register(group, groups[0])
	defer res.Colls.CloseAll()
	sess, err := session.New(buildWorker(cfg, 0, ""), res, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := tensor.RandomUniform(tensor.Float64, 3, cfg.N)
	for name, v := range map[string]*tensor.Tensor{
		"A": SPDMatrix(cfg.N, 5), "x": tensor.New(tensor.Float64, cfg.N), "r": b, "p": b,
	} {
		if err := res.Vars.Get("w0/" + name).Assign(v); err != nil {
			t.Fatal(err)
		}
	}
	// Every call runs exactly one iteration from the same ‖r‖², whatever
	// the values it leaves behind.
	rr := b.F64()[0]*b.F64()[0] + 1
	got := testing.AllocsPerRun(100, func() {
		if out := driveWorker(cfg, sess, 0, 1, rr); out.err != nil || out.iter != 1 {
			t.Fatalf("iteration: %+v", out)
		}
	})
	if got > want {
		t.Fatalf("a cg iteration makes %v allocations, want at most %d", got, want)
	}
}
