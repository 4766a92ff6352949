// Distributed: a complete parameter-server deployment in one process — the
// workflow of Sections II.A and III of the paper. A synthetic Slurm
// allocation is resolved into a ClusterSpec, task servers come up on
// loopback TCP, data-parallel workers push gradient-like updates into a ps
// variable via assign_add over the wire, and the run is checkpointed and
// restored.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"tfhpc/internal/slurm"
	"tfhpc/tf"
)

func main() {
	// 1. Resolve a (synthetic) Slurm allocation, as the paper's resolver
	// does from scontrol: three nodes, one task each -> 1 ps + 2 workers.
	alloc := slurm.NewAllocation(4242, "t03n", 3, 1, 1)
	resolver := &tf.SlurmResolver{Jobs: []tf.JobSpec{{Name: "ps", Tasks: 1}, {Name: "worker", Tasks: 2}}}
	env, err := alloc.Env(0)
	if err != nil {
		log.Fatal(err)
	}
	resolved, err := resolver.Resolve(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved cluster spec: %s\n", resolved.Spec)

	// 2. Boot the tasks. (On a real system each process runs tfserver and
	// resolves its own identity; here all tasks share the process.)
	lc, err := tf.StartLocalCluster(map[string]int{"ps": 1, "worker": 2})
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()
	peers := tf.NewPeers(lc.Spec())
	defer peers.Close()

	// 3. Each worker builds the same graph: compute locally, accumulate
	// into the shared ps variable over the wire (data parallelism).
	const dim = 8
	runWorker := func(task int) error {
		g := tf.NewGraph()
		var update, push, init *tf.Node
		g.WithDevice(fmt.Sprintf("/job:worker/task:%d", task), func() {
			update = g.AddOp("RandomUniform", tf.Attrs{
				"dtype": tf.Float64, "shape": tf.Shape{dim}, "seed": task + 1})
		})
		g.WithDevice("/job:ps/task:0", func() {
			init = g.AddNamedOp("init", "Assign", tf.Attrs{"var_name": "theta"},
				g.Const(tf.NewTensor(tf.Float64, dim)))
			push = g.AddNamedOp("push", "AssignAdd", tf.Attrs{"var_name": "theta"}, update)
		})
		sess, err := tf.NewSession(g, nil, tf.Options{
			LocalJob: "worker", LocalTask: task, Remote: peers,
		})
		if err != nil {
			return err
		}
		defer sess.Close()
		if task == 0 {
			if _, err := sess.Run(nil, nil, []string{init.Name()}); err != nil {
				return err
			}
		}
		for step := 0; step < 5; step++ {
			if _, err := sess.Run(nil, nil, []string{push.Name()}); err != nil {
				return err
			}
		}
		return nil
	}

	// Worker 0 initialises, then both push concurrently.
	if err := runWorker(0); err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := runWorker(1); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		log.Fatal(err)
	}

	// 4. Inspect and checkpoint the ps state.
	psStore := lc.Server("ps", 0).Res.Vars
	theta, err := psStore.Get("theta").Read()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theta after 10 pushes from 2 workers: %v\n", theta)

	dir, err := os.MkdirTemp("", "distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckPath := filepath.Join(dir, "model.ckpt")
	if err := tf.CaptureCheckpoint("example:v1", 10, psStore).Save(ckPath); err != nil {
		log.Fatal(err)
	}

	// 5. Restore into a fresh "restarted" ps and verify.
	fresh := tf.NewResources()
	step, err := tf.RestoreCheckpoint(ckPath, "example:v1", fresh.Vars)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := fresh.Vars.Get("theta").Read()
	if err != nil {
		log.Fatal(err)
	}
	if !restored.Equal(theta) {
		log.Fatal("restored state differs")
	}
	fmt.Printf("checkpoint at step %d restores bit-exactly — OK\n", step)
}
