package sgd

import (
	"fmt"
	"time"

	"tfhpc/internal/cluster"
	"tfhpc/internal/session"
)

// ClusterOptions tune a distributed run over running task servers.
type ClusterOptions struct {
	// Job is the worker job name in the cluster spec (default "worker").
	Job string
	// HealthWait bounds how long to wait for the tasks to come up (default
	// 10s).
	HealthWait time.Duration
}

// RunCluster trains over an already-running cluster: replica w's graph runs
// on /job:<job>/task:<w> (see cluster.Peers.Session) and the per-step
// gradient allreduce rings directly between the task servers — the paper's
// Horovod deployment shape.
func RunCluster(cfg Config, peers *cluster.Peers, opts ClusterOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	job := opts.Job
	if job == "" {
		job = "worker"
	}
	// The ring spans every task of the job, so the replica count must match
	// exactly: a partial set of drivers would leave un-driven ranks blocking
	// the collectives until the receive timeout.
	if got := peers.Spec().NumTasks(job); got != cfg.Workers {
		return nil, fmt.Errorf("sgd: %d workers requested but job %q has %d tasks (counts must match)", cfg.Workers, job, got)
	}
	wait := opts.HealthWait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	if err := peers.WaitHealthy(job, wait); err != nil {
		return nil, err
	}
	const group = "sgd"
	if err := peers.InitCollective(job, group, cluster.CollectiveOptions{Fusion: cfg.fusionOptions()}); err != nil {
		return nil, err
	}

	// Replica w's whole graph runs on task w: in this session when the
	// task serves in this process, otherwise as one partition there, where
	// each step is one run message. The variables load as feeds of the
	// first Run.
	sessions := make([]*session.Session, cfg.Workers)
	for w := range sessions {
		sess, err := peers.Session(buildWorker(cfg, w, group, fmt.Sprintf("/job:%s/task:%d", job, w)), job, w)
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		sessions[w] = sess
	}
	if err := eachSlot(cfg.Workers, func(w int) error {
		if err := initVars(sessions[w], workerInit(cfg, w)); err != nil {
			return fmt.Errorf("sgd: init worker %d: %w", w, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Poison the ring on the servers so the other ranks cascade the failure
	// instead of blocking until the receive timeout.
	return runReplicas(cfg, sessions, func(int) { peers.AbortCollective(job, group) })
}
