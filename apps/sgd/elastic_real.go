package sgd

import (
	"fmt"
	"sync"

	"tfhpc/internal/collective"
	"tfhpc/internal/session"
)

// In-process elastic deployment: replicas share one Resources store and talk
// over in-process hubs (NewLoopbackGroups), fresh ones per generation. A
// kill closes the task's endpoint — poisoning its lane in every peer's hub
// exactly the way a dying process's edges do — and the task stays "dead" to
// probes for SimRevive boundary polls, which is how the property tests drive
// deterministic shrink-then-grow histories without real processes.

type loopbackElastic struct {
	cfg  Config
	opts ElasticOptions
	res  *session.Resources

	mu        sync.Mutex
	active    []int
	groups    []*collective.Group
	groupIDs  []string
	down      map[int]int // task -> remaining announced() polls before revival
	neverBack map[int]bool
}

func elasticLoopGroup(gen, slot int) string { return fmt.Sprintf("sgd/g%d/w%d", gen, slot) }

func newLoopbackElastic(cfg Config, opts ElasticOptions) *loopbackElastic {
	return &loopbackElastic{
		cfg:       cfg,
		opts:      opts,
		res:       session.NewResources(),
		down:      make(map[int]int),
		neverBack: make(map[int]bool),
	}
}

func (b *loopbackElastic) setup(active []int, gen int) ([]*session.Session, error) {
	b.closeGroups()
	p := len(active)
	groups := collective.NewLoopbackGroups(p, collective.Options{Fusion: b.cfg.fusionOptions()})
	ids := make([]string, p)
	for slot, grp := range groups {
		ids[slot] = elasticLoopGroup(gen, slot)
		b.res.Colls.Register(ids[slot], grp)
	}
	b.mu.Lock()
	b.active = append([]int(nil), active...)
	b.groups = groups
	b.groupIDs = ids
	b.mu.Unlock()

	sessions := make([]*session.Session, p)
	for slot := range sessions {
		sess, err := session.New(buildWorkerPre(b.cfg, elasticPre(gen, slot), ids[slot], ""), b.res, session.Options{})
		if err != nil {
			return nil, err
		}
		sessions[slot] = sess
	}
	return sessions, nil
}

func (b *loopbackElastic) abort(int) { b.closeGroups() }

// closeGroups tears the current generation's memberships down (closing a
// group poisons its lanes in every peer's hub, so any rank still blocked
// errors out).
func (b *loopbackElastic) closeGroups() {
	b.mu.Lock()
	ids := b.groupIDs
	b.groupIDs = nil
	b.groups = nil
	b.mu.Unlock()
	for _, id := range ids {
		b.res.Colls.Close(id)
	}
}

func (b *loopbackElastic) probe(task int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dead := b.down[task]; dead || b.neverBack[task] {
		return fmt.Errorf("sgd: task %d is down", task)
	}
	return nil
}

func (b *loopbackElastic) announced(task int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.neverBack[task] {
		return false
	}
	left, dead := b.down[task]
	if !dead {
		return true
	}
	left--
	if left > 0 {
		b.down[task] = left
		return false
	}
	delete(b.down, task)
	return true
}

func (b *loopbackElastic) kill(task int) {
	if b.opts.Kill != nil {
		b.opts.Kill(task)
		return
	}
	b.mu.Lock()
	slot := -1
	for s, t := range b.active {
		if t == task {
			slot = s
		}
	}
	var grp *collective.Group
	if slot >= 0 && slot < len(b.groups) {
		grp = b.groups[slot]
	}
	if b.opts.SimRevive < 0 {
		b.neverBack[task] = true
	} else {
		polls := b.opts.SimRevive
		if polls == 0 {
			polls = 1
		}
		b.down[task] = polls
	}
	b.mu.Unlock()
	if grp != nil {
		grp.Close()
	}
}

func (b *loopbackElastic) close() {
	b.closeGroups()
	b.res.Colls.CloseAll()
}

// RunElasticReal trains elastically in-process: in-process hubs, simulated
// kills via the fault plan, deterministic revival after SimRevive boundary
// polls.
func RunElasticReal(cfg Config, opts ElasticOptions) (*ElasticResult, error) {
	be := newLoopbackElastic(cfg, opts)
	defer be.close()
	return runElastic(cfg, be, opts)
}
