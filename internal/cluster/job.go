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

// Job is a driver's hold on tasks of a job: one collective group over them,
// and one session per slot running that slot's graph on its task.
type Job struct {
	peers    *Peers
	name     string
	group    string
	epoch    uint64
	sessions []*session.Session
}

// OpenJob brings a job up for workers workers (an empty job is "worker"):
// CheckJob, then OpenJobTasks over tasks 0..workers-1, so worker w runs on
// task w.
func (p *Peers) OpenJob(job, group string, workers int, opts CollectiveOptions,
	build func(w int, device string) *graph.Graph) (*Job, error) {
	job = cmp.Or(job, "worker")
	if err := p.CheckJob(job, workers); err != nil {
		return nil, err
	}
	tasks := make([]int, workers)
	for i := range tasks {
		tasks[i] = i
	}
	return p.OpenJobTasks(job, group, tasks, opts, build)
}

// OpenJobTasks brings a group up over some of a job's tasks, which it does
// not health-check: the i-th of tasks becomes the group's rank i and slot
// i, whose Session runs build(i, "/job:<job>/task:<task>"), a graph placed
// on that device. An elastic driver reopens its group this way over the
// tasks still alive. The group (re)joins every task under a fresh epoch
// (nextEpoch), which replaces and closes the task's previous membership of
// that group and fences out its traffic.
func (p *Peers) OpenJobTasks(job, group string, tasks []int, opts CollectiveOptions,
	build func(slot int, device string) *graph.Graph) (*Job, error) {
	job = cmp.Or(job, "worker")
	if len(tasks) == 0 {
		return nil, fmt.Errorf("cluster: group %q of job %q opened over no tasks", group, job)
	}
	addrs := make([]string, len(tasks))
	for i, task := range tasks {
		a, err := p.spec.Address(job, task)
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	j := &Job{peers: p, name: job, group: group, epoch: p.nextEpoch()}
	for i, task := range tasks {
		req := encodeCollInit(&collInit{group: group, rank: i, addrs: addrs, epoch: j.epoch, opts: opts})
		if err := p.call(job, task, "CollInit", (*Server).handleCollInit, req); err != nil {
			return nil, fmt.Errorf("cluster: CollInit on /job:%s/task:%d: %w", job, task, err)
		}
	}
	for i, task := range tasks {
		sess, err := p.Session(build(i, fmt.Sprintf("/job:%s/task:%d", job, task)), job, task)
		if err != nil {
			j.Close()
			return nil, err
		}
		j.sessions = append(j.sessions, sess)
	}
	return j, nil
}

// nextEpoch issues a collective epoch: strictly greater than every epoch
// this Peers issued before, and never behind the wall clock, so a restarted
// driver's groups still supersede its predecessor's. Every rank's transport
// fences its traffic with it: chunks still in flight from an aborted
// incarnation are never reduced into its successor's collectives.
func (p *Peers) nextEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch = max(p.epoch+1, uint64(time.Now().UnixNano()))
	return p.epoch
}

// Sessions returns the slots' sessions, slot i's at index i.
func (j *Job) Sessions() []*session.Session { return j.sessions }

// Abort poisons the job's collective group on every task of the job,
// opened or not (AbortCollective).
func (j *Job) Abort() { j.peers.AbortCollective(j.name, j.group) }

// Each runs f for every slot at once (see Each); the first failure aborts
// the job.
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

// Close closes every slot's session.
func (j *Job) Close() {
	for _, s := range j.sessions {
		s.Close()
	}
}
