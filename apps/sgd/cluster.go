package sgd

import (
	"fmt"

	"tfhpc/internal/cluster"
	"tfhpc/internal/graph"
	"tfhpc/internal/session"
)

// ClusterOptions tune a distributed run over running task servers.
type ClusterOptions struct {
	// Job is the worker job name in the cluster spec (default "worker").
	Job string
}

// RunCluster trains over an already-running cluster: replica w's graph runs
// on /job:<job>/task:<w> (see cluster.Peers.OpenJob) and the per-step
// gradient allreduce rings directly between the task servers — the paper's
// Horovod deployment shape.
func RunCluster(cfg Config, peers *cluster.Peers, opts ClusterOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Replica w's whole graph runs on task w: in this session when the
	// task serves in this process, otherwise as one partition there, where
	// each step is one run message. The variables load as feeds of the
	// first Run.
	const group = "sgd"
	job, err := peers.OpenJob(opts.Job, group, cfg.Workers, cluster.CollectiveOptions{FlushTensors: cfg.flushTensors()},
		func(w int, device string) *graph.Graph { return buildWorker(cfg, w, group, device) })
	if err != nil {
		return nil, err
	}
	defer job.Close()
	if err := job.Each(func(w int, sess *session.Session) error {
		if err := initVars(sess, workerInit(cfg, w)); err != nil {
			return fmt.Errorf("sgd: init worker %d: %w", w, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return runReplicas(cfg, job.Sessions(), job.Abort)
}
