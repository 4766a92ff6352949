package cluster

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"tfhpc/internal/graph"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
)

// HealthWait bounds how long CheckJob waits for a job's tasks.
const HealthWait = 10 * time.Second

// CheckJob checks that job has exactly workers tasks (a ring spans them
// all, and an un-driven rank would block it) and waits up to HealthWait for
// each to answer Health, retrying with backoff: tasks in other processes
// may still be starting. A task serving in this process is not called.
func (p *Peers) CheckJob(job string, workers int) error {
	if got := p.spec.NumTasks(job); got != workers {
		return fmt.Errorf("cluster: %d workers requested but job %q has %d tasks (counts must match)", workers, job, got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), HealthWait)
	defer cancel()
	pol := rpc.RetryPolicy{Attempts: 1 << 20, Base: 20 * time.Millisecond, Max: 500 * time.Millisecond}
	for task := range workers {
		if p.local(job, task) != nil {
			continue
		}
		if err := p.HealthRetry(ctx, job, task, pol); err != nil {
			return fmt.Errorf("cluster: task /job:%s/task:%d not healthy after %v: %w", job, task, HealthWait, err)
		}
	}
	return nil
}

// Job is a driver's hold on a job's tasks: one collective group over them,
// and one session per worker running that worker's graph on its task.
type Job struct {
	peers    *Peers
	name     string
	group    string
	sessions []*session.Session
}

// OpenJob brings a job up for workers workers (an empty job is "worker"):
// CheckJob, InitCollective of group, then worker w's Session on
// build(w, "/job:<job>/task:<w>"), a graph placed on that device.
func (p *Peers) OpenJob(job, group string, workers int, opts CollectiveOptions,
	build func(w int, device string) *graph.Graph) (*Job, error) {
	job = cmp.Or(job, "worker")
	if err := p.CheckJob(job, workers); err != nil {
		return nil, err
	}
	if err := p.InitCollective(job, group, opts); err != nil {
		return nil, err
	}
	j := &Job{peers: p, name: job, group: group}
	for w := range workers {
		sess, err := p.Session(build(w, fmt.Sprintf("/job:%s/task:%d", job, w)), job, w)
		if err != nil {
			j.Close()
			return nil, err
		}
		j.sessions = append(j.sessions, sess)
	}
	return j, nil
}

// Sessions returns the workers' sessions, worker w's at index w.
func (j *Job) Sessions() []*session.Session { return j.sessions }

// Abort poisons the job's collective group on every task (AbortCollective).
func (j *Job) Abort() { j.peers.AbortCollective(j.name, j.group) }

// Each runs f for every worker at once (see Each); the first failure
// aborts the job.
func (j *Job) Each(f func(w int, sess *session.Session) error) error {
	return Each(len(j.sessions), func(w int) error { return f(w, j.sessions[w]) }, j.Abort)
}

// Each runs f(i) for i = 0..n-1 at once and returns the first failure,
// which first calls abort (if not nil), once: runs blocked in a collective
// then fail fast instead of waiting out the receive timeout.
func Each(n int, f func(i int) error, abort func()) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			if err := f(i); err != nil {
				once.Do(func() {
					first = err
					if abort != nil {
						abort()
					}
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// Close closes every worker's session.
func (j *Job) Close() {
	for _, s := range j.sessions {
		s.Close()
	}
}
