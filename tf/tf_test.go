package tf_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tfhpc/tf"
)

// TestListing1 exercises the facade end to end the way the package doc
// advertises.
func TestListing1(t *testing.T) {
	g := tf.NewGraph()
	var a, b, c *tf.Node
	g.WithDevice("/cpu:0", func() {
		a = g.AddOp("RandomUniform", tf.Attrs{"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 1})
		b = g.AddOp("RandomUniform", tf.Attrs{"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 2})
	})
	g.WithDevice("/gpu:0", func() { c = g.AddOp("MatMul", nil, a, b) })
	sess, err := tf.NewSession(g, nil, tf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(nil, []string{c.Name()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Shape().Equal(tf.Shape{3, 3}) {
		t.Fatalf("shape %v", out[0].Shape())
	}
}

// TestDistributedFacade stands up a ps/worker cluster through the facade
// and runs remote variable updates with tracing on.
func TestDistributedFacade(t *testing.T) {
	lc, err := tf.StartLocalCluster(map[string]int{"ps": 1, "worker": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	peers := tf.NewPeers(lc.Spec())
	defer peers.Close()

	tf.EnableTracing()
	runWorker := func(task int) error {
		g := tf.NewGraph()
		var push, init *tf.Node
		g.WithDevice("/job:ps/task:0", func() {
			init = g.AddNamedOp("init", "Assign", tf.Attrs{"var_name": "w"},
				g.Const(tf.NewTensor(tf.Float64, 4)))
			push = g.AddNamedOp("push", "AssignAdd", tf.Attrs{"var_name": "w"},
				g.Const(tf.FromF64(tf.Shape{4}, []float64{1, 1, 1, 1})))
			push.AddControlDep(init)
		})
		sess, err := tf.NewSession(g, nil, tf.Options{
			LocalJob: "worker", LocalTask: task, Remote: peers,
		})
		if err != nil {
			return err
		}
		_, err = sess.Run(nil, nil, []string{"push"})
		return err
	}
	// Init must happen once before the concurrent pushes; worker 0 runs
	// first (its graph carries the control dependency).
	if err := runWorker(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for task := 0; task < 2; task++ {
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			g := tf.NewGraph()
			var push *tf.Node
			g.WithDevice("/job:ps/task:0", func() {
				push = g.AddNamedOp("push", "AssignAdd", tf.Attrs{"var_name": "w"},
					g.Const(tf.FromF64(tf.Shape{4}, []float64{1, 1, 1, 1})))
			})
			sess, err := tf.NewSession(g, nil, tf.Options{
				LocalJob: "worker", LocalTask: task, Remote: peers,
			})
			if err != nil {
				errs <- err
				return
			}
			if _, err := sess.Run(nil, nil, []string{push.Name()}); err != nil {
				errs <- err
			}
		}(task)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// 3 pushes total (1 init run + 2 concurrent).
	got, err := lc.Server("ps", 0).Res.Vars.Get("w").Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.F64()[0] != 3 {
		t.Fatalf("w = %v, want 3 pushes", got.F64())
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tf.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"op":"Partition"`) {
		t.Fatalf("trace file holds no partition span: %v", err)
	}
}

// TestCheckpointFacade round-trips variables through the facade names.
func TestCheckpointFacade(t *testing.T) {
	res := tf.NewResources()
	res.Vars.Get("x").Assign(tf.ScalarF64(2.5))
	path := filepath.Join(t.TempDir(), "ck")
	if err := tf.CaptureCheckpoint("t:v1", 7, res.Vars).Save(path); err != nil {
		t.Fatal(err)
	}
	fresh := tf.NewResources()
	step, err := tf.RestoreCheckpoint(path, "t:v1", fresh.Vars)
	if err != nil || step != 7 {
		t.Fatalf("restore: %v step %d", err, step)
	}
	v, _ := fresh.Vars.Get("x").Read()
	if v.ScalarFloat() != 2.5 {
		t.Fatal("value lost")
	}
}

// TestDatasetFacade runs the pipeline composition through the aliases.
func TestDatasetFacade(t *testing.T) {
	ds := tf.FromElements(
		[]*tf.Tensor{tf.ScalarI64(0)},
		[]*tf.Tensor{tf.ScalarI64(1)},
		[]*tf.Tensor{tf.ScalarI64(2)},
		[]*tf.Tensor{tf.ScalarI64(3)},
	)
	it := tf.PrefetchDataset(tf.ShardDataset(ds, 2, 0), 2).Iterator()
	var got []int64
	for {
		e, err := it.Next()
		if err != nil {
			break
		}
		got = append(got, e[0].ScalarInt())
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("shard through facade = %v", got)
	}
}

// TestQueueFacade checks the queue alias works for cross-goroutine flows.
func TestQueueFacade(t *testing.T) {
	q := tf.NewQueue(1)
	done := make(chan int64, 1)
	go func() {
		item, err := q.Dequeue()
		if err != nil {
			t.Error(err)
			return
		}
		done <- item[0].ScalarInt()
	}()
	if err := q.Enqueue([]*tf.Tensor{tf.ScalarI64(9)}); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != 9 {
		t.Fatalf("got %d", v)
	}
}
