package sgd

import (
	"cmp"
	"fmt"
	"sync"

	"tfhpc/internal/cluster"
	"tfhpc/internal/session"
)

// The elastic deployment, over running task servers (separate processes, or
// cluster.StartLocal tasks in this one): one collective group name ("sgd")
// across all generations, rebuilt by the coordinator with a strictly
// increasing epoch — the transports' epoch fences are what keep a zombie
// incarnation's traffic out of the rebuilt group. Liveness is real (Health
// RPCs with retry), so a kill -9'd task that restarts on its old address is
// folded back in at the next checkpoint boundary without any driver-side
// simulation.

const elasticClusterGroup = "sgd"

type clusterElastic struct {
	cfg   Config
	eopts ElasticOptions
	peers *cluster.Peers
	job   string
	coord *cluster.Coordinator

	mu       sync.Mutex
	down     map[int]bool // tasks the driver killed itself (simulated crash)
	sessions []*session.Session
}

func newClusterElastic(cfg Config, peers *cluster.Peers, job string, eopts ElasticOptions) *clusterElastic {
	return &clusterElastic{
		cfg:   cfg,
		eopts: eopts,
		peers: peers,
		job:   job,
		coord: cluster.NewCoordinator(peers, job),
		down:  make(map[int]bool),
	}
}

func (b *clusterElastic) setup(active []int, gen int) ([]*session.Session, error) {
	if _, err := b.coord.Init(elasticClusterGroup, active, cluster.CollectiveOptions{Fusion: b.cfg.fusionOptions()}); err != nil {
		return nil, err
	}
	// The previous generation's partitions go with its sessions.
	b.closeSessions()
	sessions := make([]*session.Session, len(active))
	for slot, task := range active {
		g := buildWorkerPre(b.cfg, elasticPre(gen, slot), elasticClusterGroup,
			fmt.Sprintf("/job:%s/task:%d", b.job, task))
		sess, err := b.peers.Session(g, b.job, task)
		if err != nil {
			return nil, err
		}
		sessions[slot] = sess
	}
	b.mu.Lock()
	b.sessions = sessions
	b.mu.Unlock()
	return sessions, nil
}

func (b *clusterElastic) closeSessions() {
	b.mu.Lock()
	sessions := b.sessions
	b.sessions = nil
	b.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

func (b *clusterElastic) abort(int) { b.coord.Abort(elasticClusterGroup) }

func (b *clusterElastic) probe(task int) error {
	b.mu.Lock()
	if b.down[task] {
		// The driver killed this task itself; don't let the probe's retry
		// window race the (test-orchestrated) restart into a no-op shrink.
		b.mu.Unlock()
		return fmt.Errorf("sgd: task %d was crash-injected", task)
	}
	b.mu.Unlock()
	return b.coord.Probe(task)
}

func (b *clusterElastic) announced(task int) bool {
	if b.coord.ProbeOnce(task) != nil {
		return false
	}
	b.mu.Lock()
	delete(b.down, task)
	b.mu.Unlock()
	return true
}

func (b *clusterElastic) kill(task int) {
	if b.eopts.Kill == nil {
		return // real deployments crash tasks from outside (CI: kill -9)
	}
	b.mu.Lock()
	b.down[task] = true
	b.mu.Unlock()
	b.eopts.Kill(task)
}

func (b *clusterElastic) close() { b.closeSessions() }

// RunElasticCluster trains elastically over an already-running cluster. The
// task count of the job is the full width; the run starts over every task
// that answers health probes and survives losing all but MinWorkers of them.
func RunElasticCluster(cfg Config, peers *cluster.Peers, copts ClusterOptions, eopts ElasticOptions) (*ElasticResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	job := cmp.Or(copts.Job, "worker")
	if err := peers.CheckJob(job, cfg.Workers); err != nil {
		return nil, err
	}
	be := newClusterElastic(cfg, peers, job, eopts)
	defer be.close()
	return runElastic(cfg, be, eopts)
}
