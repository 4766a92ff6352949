package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tfhpc/internal/npy"
	"tfhpc/internal/tensor"
)

func elemsOf(vals ...int64) []Element {
	out := make([]Element, len(vals))
	for i, v := range vals {
		out[i] = Element{tensor.ScalarI64(v)}
	}
	return out
}

func values(t *testing.T, ds Dataset) []int64 {
	t.Helper()
	es, err := Collect(ds.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e[0].ScalarInt()
	}
	return out
}

func TestFromElementsOrder(t *testing.T) {
	ds := FromElements(elemsOf(1, 2, 3)...)
	got := values(t, ds)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// Iterators are independent.
	a, b := ds.Iterator(), ds.Iterator()
	a.Next()
	e, err := b.Next()
	if err != nil || e[0].ScalarInt() != 1 {
		t.Fatal("iterators share state")
	}
}

func TestShardPartitionsExactly(t *testing.T) {
	ds := FromElements(elemsOf(0, 1, 2, 3, 4, 5, 6)...)
	seen := map[int64]int{}
	total := 0
	for id := 0; id < 3; id++ {
		for _, v := range values(t, Shard(ds, 3, id)) {
			seen[v]++
			total++
		}
	}
	if total != 7 {
		t.Fatalf("shards produced %d elements, want 7", total)
	}
	for v, count := range seen {
		if count != 1 {
			t.Fatalf("element %d appeared %d times", v, count)
		}
	}
	// Shard 0 of 3 gets indices 0,3,6.
	got := values(t, Shard(ds, 3, 0))
	if fmt.Sprint(got) != "[0 3 6]" {
		t.Fatalf("shard 0 = %v", got)
	}
}

func TestShardPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Shard(FromElements(), 3, 3)
}

func TestMapTransformsLazily(t *testing.T) {
	calls := 0
	ds := Map(FromElements(elemsOf(1, 2, 3)...), func(e Element) (Element, error) {
		calls++
		return Element{tensor.ScalarI64(e[0].ScalarInt() * 10)}, nil
	})
	if calls != 0 {
		t.Fatal("Map should be lazy")
	}
	got := values(t, ds)
	if got[2] != 30 || calls != 3 {
		t.Fatalf("got %v after %d calls", got, calls)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	ds := Map(FromElements(elemsOf(1)...), func(Element) (Element, error) {
		return nil, fmt.Errorf("boom")
	})
	if _, err := Collect(ds.Iterator()); err == nil {
		t.Fatal("map error lost")
	}
}

func TestRepeatCycles(t *testing.T) {
	ds := Repeat(FromElements(elemsOf(1, 2)...), 3)
	got := values(t, ds)
	if fmt.Sprint(got) != "[1 2 1 2 1 2]" {
		t.Fatalf("repeat = %v", got)
	}
}

func TestPrefetchPreservesOrder(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	ds := Prefetch(FromElements(elemsOf(vals...)...), 8)
	got := values(t, ds)
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("prefetch reordered at %d: %v", i, v)
		}
	}
}

func TestFromFilesLoadsTiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("tile_%d.npy", i))
		npy.Save(p, tensor.ScalarF64(float64(i*100)))
		paths = append(paths, p)
	}
	es, err := Collect(FromFiles(paths).Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 3 {
		t.Fatalf("%d elements", len(es))
	}
	for i, e := range es {
		if e[0].ScalarInt() != int64(i) {
			t.Fatalf("index %d wrong", i)
		}
		if e[1].ScalarFloat() != float64(i*100) {
			t.Fatalf("payload %d wrong", i)
		}
	}
	// Missing file errors at iteration time.
	bad := FromFiles([]string{filepath.Join(dir, "missing.npy")})
	if _, err := Collect(bad.Iterator()); err == nil {
		t.Fatal("missing file should error")
	}
}

// The composite pipeline the matmul app uses: files -> shard -> prefetch.
func TestPipelineComposition(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 10; i++ {
		p := filepath.Join(dir, fmt.Sprintf("t%d.npy", i))
		npy.Save(p, tensor.ScalarF64(float64(i)))
		paths = append(paths, p)
	}
	ds := Prefetch(Shard(FromFiles(paths), 2, 1), 4)
	es, err := Collect(ds.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 5 {
		t.Fatalf("%d elements", len(es))
	}
	for i, e := range es {
		if e[0].ScalarInt() != int64(2*i+1) {
			t.Fatalf("shard 1 element %d has index %d", i, e[0].ScalarInt())
		}
	}
}

// tileFiles writes k scalar .npy files (file i holds 100·i) and returns
// their paths.
func tileFiles(t *testing.T, k int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, k)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("t%d.npy", i))
		if err := npy.Save(paths[i], tensor.ScalarF64(float64(100*i))); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// render lists every element's scalars, so two passes compare as strings.
func render(t *testing.T, ds Dataset) string {
	t.Helper()
	es, err := Collect(ds.Iterator())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range es {
		var parts []string
		for _, x := range e {
			parts = append(parts, fmt.Sprint(x.ScalarFloat()))
		}
		out = append(out, strings.Join(parts, ":"))
	}
	return fmt.Sprint(out)
}

// TestListShardMatchesGenericShard: selecting a shard's entries up front
// yields exactly what iterating the whole source and dropping the other
// shards' elements yields — payloads and global indices — for every shard
// of every count up to 5, including shards left empty.
func TestListShardMatchesGenericShard(t *testing.T) {
	for _, k := range []int{0, 3, 11} {
		vals := make([]int64, k)
		for i := range vals {
			vals[i] = int64(7 * i)
		}
		sources := map[string]Dataset{
			"elements": FromElements(elemsOf(vals...)...),
			"files":    FromFiles(tileFiles(t, k)),
		}
		for name, src := range sources {
			for n := 1; n <= 5; n++ {
				for id := 0; id < n; id++ {
					got := render(t, Shard(src, n, id))
					want := render(t, &shardDataset{src: src, n: n, id: id})
					if got != want {
						t.Fatalf("%s k=%d shard %d/%d: %s, generic path %s", name, k, id, n, got, want)
					}
				}
			}
		}
	}
}

// TestShardOfShardComposes: shard 0 of shard 1 of 2 is every fourth entry
// from 1 on, with its global index.
func TestShardOfShardComposes(t *testing.T) {
	paths := tileFiles(t, 11)
	got := render(t, Shard(Shard(FromFiles(paths), 2, 1), 2, 0))
	if want := "[1:100 5:500 9:900]"; got != want {
		t.Fatalf("files: %s, want %s", got, want)
	}
	generic := &shardDataset{src: &shardDataset{src: FromFiles(paths), n: 2, id: 1}, n: 2, id: 0}
	if want := render(t, generic); got != want {
		t.Fatalf("files: %s, generic path %s", got, want)
	}
	if got := values(t, Shard(Shard(FromElements(elemsOf(0, 1, 2, 3, 4, 5, 6, 7, 8)...), 2, 1), 2, 0)); fmt.Sprint(got) != "[1 5]" {
		t.Fatalf("elements: %v", got)
	}
}

// TestFileShardOpensOnlyItsFiles: a FromFiles shard still iterates once
// every other shard's files are gone.
func TestFileShardOpensOnlyItsFiles(t *testing.T) {
	paths := tileFiles(t, 8)
	for i, p := range paths {
		if i%4 != 3 {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := render(t, Shard(FromFiles(paths), 4, 3)); got != "[3:300 7:700]" {
		t.Fatalf("shard 3/4 = %s", got)
	}
}

// TestPrefetchCloseStopsProducer: a consumer that abandons a prefetch
// after one element and closes it leaves no goroutine behind, even with
// the producer blocked on a full buffer.
func TestPrefetchCloseStopsProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	vals := make([]int64, 100)
	for i := 0; i < 4; i++ {
		it := Map(Prefetch(FromElements(elemsOf(vals...)...), 2), func(e Element) (Element, error) { return e, nil }).Iterator()
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		it.Close() // idempotent
	}
	// Close returns once the producer has closed its channel; give the
	// goroutines the few instructions they have left.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
