// Package smoke runs the distributed smoke tests over real processes. Each
// leg builds the CLIs, boots tfserver and tfserve processes on loopback
// ports, drives them over TCP and HTTP, and fails on any broken contract.
// The legs are the subtests of TestSmoke:
//
//   - core: CG, matmul, FFT and SGD over a 4-task TCP cluster, fused ≡
//     unfused final weights, and train → checkpoint → serve with batched ≡
//     single predicts;
//   - elastic: a task killed mid-epoch and restarted; the run shrinks,
//     resumes, grows back and lands within 1e-3 of an uninterrupted run;
//   - rollout: scale-up, a canary rollout to promotion and scale-down under
//     load, with zero dropped requests and zero autoscaler flaps;
//   - telemetry: cross-process traces of a collective allreduce and of a
//     routed predict, checked for their structure;
//   - generate: concurrent SSE streams bit-identical to a sequential
//     reference, a mid-decode join, and a cancel whose slot comes back.
//
// The legs boot processes and take a while, so they run only with
// TFHPC_SMOKE=1. Pass -count=1: go test cannot see the binaries change and
// would otherwise replay a cached pass.
//
//	TFHPC_SMOKE=1 go test -count=1 -v ./smoke
//	TFHPC_SMOKE=1 go test -count=1 -v -run 'TestSmoke/elastic$' ./smoke
//
// A failed leg prints the log of every process it started. A hung leg has
// its processes killed 30 s before the go test -timeout, so it fails with
// those logs instead of the timeout's goroutine dump.
package smoke

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSmoke builds the CLIs once and runs every leg against them.
func TestSmoke(t *testing.T) {
	if os.Getenv("TFHPC_SMOKE") == "" {
		t.Skip("boots real processes; set TFHPC_SMOKE=1 to run")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"tfserver", "tfcg", "tfmatmul", "tffft", "tfsgd", "tfserve"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "tfhpc/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, leg := range []struct {
		name string
		run  func(*harness)
	}{
		{"core", core},
		{"elastic", elastic},
		{"rollout", rollout},
		{"telemetry", telemetry},
		{"generate", generate},
	} {
		t.Run(leg.name, func(t *testing.T) { leg.run(newHarness(t, bin)) })
	}
}

// core: CG, matmul, FFT and SGD over a 4-task TCP cluster — tfcg enforces
// the residual tolerance, tfmatmul and tffft check C and X against a direct
// product and transform, and tfsgd loss decrease and replica equality, all
// through their exit status, and a CG solve stopped at a checkpoint and
// resumed takes the uninterrupted solve's iterations — then fused ≡ unfused
// final weights, then train → checkpoint → serve with concurrent predicts
// that coalesce.
func core(h *harness) {
	spec, _ := h.cluster("tfserver", 4, false)
	cg := []string{"tfcg", "-mode", "cluster", "-spec", spec, "-workers", "4", "-n", "256"}
	full := cgIterations(h, h.run(append(cg, "-iters", "300", "-tol", "1e-6")...))
	cgCkpt := h.path("cg.ckpt")
	h.run(append(cg, "-iters", "60", "-tol", "0", "-checkpoint", cgCkpt, "-checkpoint-every", "25")...)
	if got := cgIterations(h, h.run(append(cg, "-iters", "300", "-tol", "1e-6", "-checkpoint", cgCkpt, "-resume")...)); got != full {
		h.Fatalf("the resumed CG solve took %d iterations, the uninterrupted one %d", got, full)
	}
	h.run("tfmatmul", "-mode", "cluster", "-spec", spec, "-workers", "4", "-n", "256", "-tile", "64")
	h.run("tffft", "-mode", "cluster", "-spec", spec, "-workers", "4", "-logn", "14", "-tiles", "8")
	sgd := []string{"tfsgd", "-mode", "cluster", "-spec", spec, "-workers", "4", "-features", "128", "-rows", "256", "-steps", "25", "-lr", "0.3"}
	h.run(sgd...)
	h.run(append(sgd, "-param-tensors", "4", "-fuse")...)

	// Fused and unfused gradients reduce through the same doubling tree, so
	// the final weights must agree to the bit.
	local := []string{"tfsgd", "-mode", "real", "-features", "64", "-rows", "128", "-workers", "2", "-steps", "20", "-param-tensors", "4"}
	unfused, fused := h.path("unfused.ckpt"), h.path("fused.ckpt")
	h.run(append(local, "-checkpoint", unfused)...)
	h.run(append(local, "-fuse", "-checkpoint", fused)...)
	if !bytes.Equal(h.read(unfused), h.read(fused)) {
		h.Fatal("the fused SGD checkpoint differs from the unfused one")
	}

	ckpt := h.path("smoke.ckpt")
	h.run("tfsgd", "-mode", "real", "-features", "64", "-rows", "256", "-workers", "2", "-steps", "30", "-checkpoint", ckpt)
	_, base := h.serve("tfserve", "-model", "smoke="+ckpt, "-max-batch", "32")
	h.rises(base, []string{"tfhpc_batcher_rows_total", "tfhpc_batcher_batches_total"}, func() {
		batchedEqualsSingle(h, base)
	})
}

// elastic: a task is killed with SIGKILL mid-epoch and restarted on its old
// port. The run must shrink around it, resume from its checkpoint, grow back
// to full width and land within 1e-3 of an uninterrupted run, all without
// the driver restarting.
func elastic(h *harness) {
	spec, tasks := h.cluster("tfserver", 4, false)
	args := []string{"tfsgd", "-mode", "elastic", "-spec", spec, "-workers", "4", "-features", "64", "-rows", "128", "-steps", "40", "-lr", "0.3", "-ckpt-every", "3"}
	want := summary(h, h.run(args...))

	// -step-delay keeps the run going long enough for the restarted task to
	// return before the last checkpoint boundary.
	run := h.start("tfsgd-elastic", append(args, "-ckpt-file", h.path("elastic.ckpt"), "-step-delay", "50ms")...)
	h.await(run, "training", func() bool { return strings.Contains(h.log(run), "elastic: generation 1 ") })
	victim := tasks[2]
	victim.kill()
	h.await(run, "a shrink", func() bool { return strings.Contains(h.log(run), "elastic: shrink") })
	h.start(victim.name+"-restarted", victim.args...)
	got := summary(h, h.wait(run))

	if got["shrinks"] < 1 || got["grows"] < 1 || got["workers"] != 4 {
		h.Fatalf("got %v; want shrinks >= 1, grows >= 1 and workers = 4", got)
	}
	if rel := math.Abs(got["final_loss"]-want["final_loss"]) / math.Abs(want["final_loss"]); !(rel <= 1e-3) {
		h.Fatalf("elastic loss %g vs uninterrupted %g: relative difference %g, want <= 1e-3",
			got["final_loss"], want["final_loss"], rel)
	}
}

// cgIterations parses the iteration count from tfcg's "cg cluster: … in N
// iterations" line.
func cgIterations(h *harness, out string) int {
	h.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "cg cluster: ") {
			continue
		}
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			if f[i] == "iterations," {
				n, err := strconv.Atoi(f[i-1])
				if err != nil {
					h.Fatalf("iteration count in %q: %v", line, err)
				}
				return n
			}
		}
	}
	h.Fatalf("no cg cluster report line in:\n%s", out)
	return 0
}

// summary parses tfsgd's "sgd elastic: final_loss=… shrinks=…" line.
func summary(h *harness, out string) map[string]float64 {
	h.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "sgd elastic: final_loss=") {
			continue
		}
		m := map[string]float64{}
		for _, f := range strings.Fields(line)[2:] {
			k, v, _ := strings.Cut(f, "=")
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				h.Fatalf("summary field %q: %v", f, err)
			}
			m[k] = x
		}
		return m
	}
	h.Fatalf("no elastic summary line in:\n%s", out)
	return nil
}

// rollout: under sustained load the autoscaler grows the fleet, a canary
// steps to promotion and the fleet shrinks once the load stops.
func rollout(h *harness) {
	v1, v2 := h.path("v1.ckpt"), h.path("v2.ckpt")
	train := []string{"tfsgd", "-mode", "real", "-features", "64", "-rows", "256", "-workers", "2"}
	h.run(append(train, "-steps", "30", "-checkpoint", v1)...)
	h.run(append(train, "-steps", "60", "-checkpoint", v2)...)
	srv, base := h.serve("tfserve", "-model", "smoke="+v1,
		"-autoscale", "min=1,max=3,target=3,tick=100ms,down-cooldown=1500ms",
		"-canary", "steps=25;100,hold=1200ms,maxp99=500ms,maxerr=0.02,min-samples=10",
		"-slo-window", "10s")
	h.rises(base, []string{`tfhpc_monitor_requests_total{arm="stable"}`}, func() {
		lifecycle(h, srv, base, v2)
	})
	for _, s := range []string{`tfhpc_monitor_requests_total{arm="canary"}`, "tfhpc_autoscaler_scale_ups_total", "tfhpc_rollout_transitions_total"} {
		if v := h.metric(base, s); v <= 0 {
			h.Fatalf("%s = %v after the lifecycle, want > 0", s, v)
		}
	}
}

// telemetry: two cross-process exercises run traced — a collective
// allreduce between two tfserver tasks, and predicts routed through a
// tfserve router to two replicas — and each set of per-process dumps must
// merge into one distributed trace.
func telemetry(h *harness) {
	spec, tasks := h.cluster("coll", 2, true)
	h.run("tfcg", "-mode", "cluster", "-spec", spec, "-workers", "2", "-n", "128", "-iters", "200", "-tol", "1e-6")
	h.checkTrace(tasks, "collective_allreduce")

	var procs []*proc
	var replicas []string
	for i := range 2 {
		name := fmt.Sprintf("replica-%d", i)
		addr := fmt.Sprintf("127.0.0.1:%d", h.ports(1)[0])
		p, _ := h.serve(name, "-trace-out", h.path(name+".json"), "-rpc", addr,
			"-synthetic", "routed", "-features", "32", "-steps", "10")
		procs = append(procs, p)
		replicas = append(replicas, addr)
	}
	router, base := h.serve("router", "-trace-out", h.path("router.json"), "-route", strings.Join(replicas, ","))
	row := [][]float64{slices.Repeat([]float64{0.1}, 32)}
	for i := range 20 {
		if _, err := predict(base, "routed", row); err != nil {
			h.Fatalf("routed predict %d: %v", i, err)
		}
	}
	if v := h.metric(base, "tfhpc_router_routed_total"); v < 20 {
		h.Fatalf("tfhpc_router_routed_total = %v after 20 predicts", v)
	}
	h.checkTrace(append([]*proc{router}, procs...), "router_predict", "stream_predict_serve")
}

// generate: concurrent SSE streams must match a sequential reference token
// for token, one stream must join another's batch mid-decode, and a stream
// dropped mid-decode must get its slot back with no leak.
func generate(h *harness) {
	ckpt := h.path("gen.ckpt")
	h.run("tfsgd", "-mode", "real", "-features", "32", "-rows", "128", "-workers", "2", "-steps", "30", "-gen-checkpoint", ckpt)
	// -gen-max-tokens is lifted so the held stream keeps decoding under
	// backpressure until a whole second stream has come and gone.
	srv, base := h.serve("tfserve", "-genmodel", "gen="+ckpt, "-gen-slots", "4", "-deadline", "10s", "-gen-max-tokens", "1048576")

	// Mixed budgets, so short and long sequences share the batch.
	const n = 6
	prompts := randRows(99, n, 32)
	budget := func(i int) int { return 24 + 16*(i%3) }
	refs := make([][]token, n)
	for i, p := range prompts {
		toks, finish, err := generateStream(base, p, budget(i))
		if err != nil || finish != "length" || len(toks) != budget(i) {
			h.Fatalf("reference stream %d: %d tokens, finish %q, %v; want %d tokens, finish length",
				i, len(toks), finish, err, budget(i))
		}
		refs[i] = toks
	}
	got := make([][]token, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = generateStream(base, p, budget(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			h.Fatalf("concurrent stream %d: %v", i, errs[i])
		}
		if k := firstDiff(got[i], refs[i]); k >= 0 {
			h.Fatalf("stream %d token %d: concurrent decode differs from the sequential reference", i, k)
		}
	}

	// Mid-decode join: stream A is held mid-decode by backpressure — a huge
	// budget and a reader that stops, so its token window and the socket
	// buffers fill and its slot stalls. Stream B runs to completion, then A
	// is read on until a step stamp passes B's last. B's whole life then lies
	// strictly inside A's, which flush-and-refill scheduling cannot produce.
	a, err := openStream(base, prompts[0], 1<<20)
	if err != nil {
		h.Fatalf("stream A: %v", err)
	}
	defer a.Close()
	var held token
	for range 5 {
		if held, err = a.next(); err != nil {
			h.Fatalf("stream A: %v", err)
		}
	}
	b, _, err := generateStream(base, prompts[1], 48)
	if err != nil || len(b) != 48 {
		h.Fatalf("stream B: %d tokens of 48, %v", len(b), err)
	}
	var lastB uint64
	for _, t := range b {
		if t.Step <= held.Step {
			h.Fatalf("stream B decoded at step %d, not after A's held step %d", t.Step, held.Step)
		}
		lastB = max(lastB, t.Step)
	}
	for {
		t, err := a.next()
		if err != nil {
			h.Fatalf("stream A ended before passing B's last step %d: %v", lastB, err)
		}
		if t.Step > lastB {
			break
		}
	}
	h.Logf("stream B (steps %d..%d) decoded inside stream A's lifetime", b[0].Step, lastB)

	// Dropping A mid-decode must cancel its sequence and free its slot.
	a.Close()
	h.await(srv, "free slots after the cancel", func() bool {
		return h.metric(base, "tfhpc_generate_slots_in_use") == 0
	})
	if v := h.metric(base, "tfhpc_generate_slot_leaks_total"); v != 0 {
		h.Fatalf("tfhpc_generate_slot_leaks_total = %v, want exactly 0", v)
	}
	if v := h.metric(base, "tfhpc_generate_cancelled_total"); v < 1 {
		h.Fatalf("tfhpc_generate_cancelled_total = %v after a mid-stream disconnect, want >= 1", v)
	}
	// 6 reference streams, 6 concurrent ones and B.
	if seqs, toks := h.metric(base, "tfhpc_generate_sequences_total"), h.metric(base, "tfhpc_generate_tokens_total"); seqs < 13 || toks <= 0 {
		h.Fatalf("%v sequences and %v tokens counted, want >= 13 and > 0", seqs, toks)
	}
}

// harness is one leg's view: the built binaries, a scratch directory for
// logs, checkpoints and traces, and a context that kills every process the
// leg started before go test's own timeout would.
type harness struct {
	*testing.T
	bin, dir string
	ctx      context.Context
	used     map[int]bool // ports handed out, so no two processes share one
}

func newHarness(t *testing.T, bin string) *harness {
	deadline, ok := t.Deadline()
	if !ok {
		deadline = time.Now().Add(time.Hour)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(-30*time.Second))
	t.Cleanup(cancel)
	return &harness{T: t, bin: bin, dir: t.TempDir(), ctx: ctx, used: map[int]bool{}}
}

func (h *harness) path(name string) string { return filepath.Join(h.dir, name) }

func (h *harness) read(path string) []byte {
	h.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		h.Fatal(err)
	}
	return b
}

// proc is one process a leg started; its output goes to <name>.log.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // the exit status, set before done closes
}

// start boots bin/args[0] with args[1:]. The leg stops the process at
// cleanup, and prints its log if the leg failed.
func (h *harness) start(name string, args ...string) *proc {
	h.Helper()
	log, err := os.Create(h.path(name + ".log"))
	if err != nil {
		h.Fatal(err)
	}
	p := &proc{name: name, args: args, done: make(chan struct{})}
	p.cmd = exec.CommandContext(h.ctx, filepath.Join(h.bin, args[0]), args[1:]...)
	p.cmd.Stdout, p.cmd.Stderr = log, log
	if err := p.cmd.Start(); err != nil {
		log.Close()
		h.Fatalf("start %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		log.Close()
		close(p.done)
	}()
	h.Cleanup(func() {
		p.stop()
		if h.Failed() {
			h.Logf("%s log (%s):\n%s", name, strings.Join(args, " "), h.log(p))
		}
	})
	return p
}

// stop ends p gracefully — on SIGTERM tfserver and tfserve write their
// traces — and waits for it, killing it after 10 s.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

func (h *harness) log(p *proc) string {
	b, _ := os.ReadFile(h.path(p.name + ".log"))
	return string(b)
}

// wait waits for p to exit and returns its log; a nonzero exit fails the leg.
func (h *harness) wait(p *proc) string {
	h.Helper()
	<-p.done
	if p.err != nil {
		h.Fatalf("%s: %v", p.name, p.err)
	}
	return h.log(p)
}

// run runs a CLI to completion and returns its output; a nonzero exit fails
// the leg.
func (h *harness) run(args ...string) string {
	h.Helper()
	out, err := exec.CommandContext(h.ctx, filepath.Join(h.bin, args[0]), args[1:]...).CombinedOutput()
	h.Logf("%s\n%s", strings.Join(args, " "), out)
	if err != nil {
		h.Fatalf("%s: %v", args[0], err)
	}
	return string(out)
}

// await polls ready every 50 ms until it holds. It fails the leg when p
// exits first or 90 s pass.
func (h *harness) await(p *proc, what string, ready func() bool) {
	h.Helper()
	for deadline := time.Now().Add(90 * time.Second); !ready(); {
		if time.Now().After(deadline) {
			h.Fatalf("%s: no %s after 90s", p.name, what)
		}
		select {
		case <-p.done:
			h.Fatalf("%s exited before %s: %v", p.name, what, p.err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// ports returns n loopback ports that were free a moment ago and that this
// leg has not handed out before. The legs need addresses before the
// processes start: cluster specs list them, -advertise names them, and a
// restarted task takes its old one back.
func (h *harness) ports(n int) []int {
	h.Helper()
	var out []int
	for len(out) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Fatal(err)
		}
		port := ln.Addr().(*net.TCPAddr).Port
		ln.Close()
		if !h.used[port] {
			h.used[port] = true
			out = append(out, port)
		}
	}
	return out
}

// cluster boots n tfserver tasks and returns their spec. Each binds the
// wildcard address and advertises loopback, so the listen and dial
// addresses differ as they do behind NAT. A traced task writes
// <name>-<i>.json at shutdown.
func (h *harness) cluster(name string, n int, traced bool) (string, []*proc) {
	h.Helper()
	var addrs []string
	var procs []*proc
	for i, port := range h.ports(n) {
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		pname := fmt.Sprintf("%s-%d", name, i)
		args := []string{"tfserver", "-job", "worker", "-task", strconv.Itoa(i),
			"-listen", fmt.Sprintf("0.0.0.0:%d", port), "-advertise", addr}
		if traced {
			args = append(args, "-trace-out", h.path(pname+".json"))
		}
		p := h.start(pname, args...)
		h.await(p, "listener", func() bool {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.Close()
			}
			return err == nil
		})
		addrs = append(addrs, addr)
		procs = append(procs, p)
	}
	return strings.Join(addrs, ","), procs
}

// serve boots tfserve on a fresh loopback port and waits until /readyz
// answers 200. It returns the process and its base URL.
func (h *harness) serve(name string, args ...string) (*proc, string) {
	h.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", h.ports(1)[0])
	p := h.start(name, append([]string{"tfserve", "-listen", addr}, args...)...)
	base := "http://" + addr
	h.await(p, "/readyz", func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return p, base
}

// randRows returns n deterministic rows of d values in [-1, 1).
func randRows(seed uint64, n, d int) [][]float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = 2*r.Float64() - 1
		}
	}
	return rows
}
