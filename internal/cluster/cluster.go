// Package cluster implements the distributed runtime: ClusterSpecs naming
// jobs and tasks ("ps", "worker", "reducer"), per-task Servers that host
// devices, variables and queues and execute ops over RPC, and the
// SlurmClusterResolver that — like the paper's tf.contrib.cluster_resolver
// extension — turns a Slurm allocation into a ready-to-use cluster.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"tfhpc/internal/collective"
	"tfhpc/internal/graph"
	"tfhpc/internal/ops"
	"tfhpc/internal/rpc"
	"tfhpc/internal/session"
	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// Spec maps job names to their tasks' addresses, mirroring
// tf.train.ClusterSpec (Listing 2 of the paper).
type Spec map[string][]string

// Jobs returns the job names in sorted order.
func (s Spec) Jobs() []string {
	out := make([]string, 0, len(s))
	for j := range s {
		out = append(out, j)
	}
	sort.Strings(out)
	return out
}

// NumTasks returns how many tasks a job has.
func (s Spec) NumTasks(job string) int { return len(s[job]) }

// Address resolves a job/task pair.
func (s Spec) Address(job string, task int) (string, error) {
	tasks, ok := s[job]
	if !ok {
		return "", fmt.Errorf("cluster: unknown job %q", job)
	}
	if task < 0 || task >= len(tasks) {
		return "", fmt.Errorf("cluster: job %q has %d tasks, task %d requested", job, len(tasks), task)
	}
	return tasks[task], nil
}

// String renders the spec in the paper's Listing-2 style.
func (s Spec) String() string {
	var sb strings.Builder
	sb.WriteString("{")
	for i, job := range s.Jobs() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q: [%s]", job, strings.Join(s[job], ", "))
	}
	sb.WriteString("}")
	return sb.String()
}

// Server is one TensorFlow-server analogue: a task that owns local
// resources and runs the graph partitions sessions register on it. Create
// with NewServer, then Start. Every server also hosts a collective Hub, so
// tasks can run ring collectives among themselves once a client (or peer)
// calls CollInit.
type Server struct {
	Job  string
	Task int
	Res  *session.Resources
	Hub  *collective.Hub

	host      *session.Host
	srv       *rpc.Server
	addr      string
	advertise string
	published []string // the addresses it is published under
	mu        sync.Mutex
}

// colocated maps every address a Server in this process answers on to
// that Server, from Start to Close.
var colocated = struct {
	mu sync.Mutex
	m  map[string]*Server
}{m: make(map[string]*Server)}

// Published reports how many addresses Servers in this process are
// published under: 0 once every started Server is closed.
func Published() int {
	colocated.mu.Lock()
	defer colocated.mu.Unlock()
	return len(colocated.m)
}

// NewServer creates a task server with fresh resources.
func NewServer(job string, task int) *Server {
	s := &Server{Job: job, Task: task, Res: session.NewResources(), Hub: collective.NewHub()}
	s.host = session.NewHost(s.Res)
	s.srv = rpc.NewServer()
	s.srv.HandleStream(session.PartitionMethod, s.host.Serve)
	s.srv.Handle("RunOp", s.handleRunOp)
	s.srv.HandleStream(collective.StreamMethod, s.Hub.HandleStream)
	s.srv.Handle("CollInit", s.handleCollInit)
	s.srv.Handle("CollClose", s.handleCollClose)
	s.srv.Handle("Health", func([]byte) ([]byte, error) { return []byte("ok"), nil })
	return s
}

// Partitions reports how many graph partitions sessions hold registered on
// this task.
func (s *Server) Partitions() int { return s.host.Partitions() }

// HandleCtx registers an additional RPC method on this task's server — the
// hook other subsystems use to co-host endpoints on cluster worker tasks
// (model serving attaches its predict/stats methods this way, so a worker
// can train a replica and serve it from the same process).
func (s *Server) HandleCtx(method string, h rpc.CtxHandler) { s.srv.HandleCtx(method, h) }

// HandleStream registers an additional streaming method — the same co-host
// hook for stream endpoints (serving's streaming predict rides on it).
func (s *Server) HandleStream(method string, h rpc.StreamHandler) { s.srv.HandleStream(method, h) }

// Start binds addr ("host:0" allocates a port) and begins serving; returns
// the bound address. The task is published under the bound address, so
// this process reaches it without crossing the TCP stack: a peer rank hands
// its chunks straight to the task's Hub (see collective.RegisterShm), and
// Peers.Session runs the task's graphs against its resources.
func (s *Server) Start(addr string) (string, error) {
	bound, err := s.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.addr = bound
	s.publishLocked(bound)
	s.mu.Unlock()
	return bound, nil
}

// publishLocked publishes the task under addr (idempotent).
func (s *Server) publishLocked(addr string) {
	if addr == "" || slices.Contains(s.published, addr) {
		return
	}
	collective.RegisterShm(addr, s.Hub)
	colocated.mu.Lock()
	colocated.m[addr] = s
	colocated.mu.Unlock()
	s.published = append(s.published, addr)
}

// SetAdvertise overrides the address this task reports as its identity —
// needed when the bind address (0.0.0.0, a container port-map) is not what
// peers should dial. Cluster specs should carry the advertised address.
func (s *Server) SetAdvertise(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if addr != "" {
		s.advertise = addr
		// Peers dial the advertised form, so co-located discovery must find
		// the task under it too.
		if s.addr != "" {
			s.publishLocked(addr)
		}
	}
}

// Addr returns the dialable address: the advertised one when set, otherwise
// the bound listen address (empty before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.advertise != "" {
		return s.advertise
	}
	return s.addr
}

// Close tears the task down in dependency order: collective memberships and
// the hub first (so ops blocked inside a ring fail fast instead of pinning
// in-flight RPCs), then the RPC server, which drains active calls before
// closing the listener and connections.
func (s *Server) Close() error {
	s.mu.Lock()
	addrs := s.published
	s.published = nil
	s.mu.Unlock()
	for _, a := range addrs {
		collective.UnregisterShm(a, s.Hub)
		colocated.mu.Lock()
		if colocated.m[a] == s {
			delete(colocated.m, a)
		}
		colocated.mu.Unlock()
	}
	s.Res.Colls.CloseAll()
	s.Hub.Close()
	return s.srv.Close()
}

// CollInit request encoding:
//
//	1 group, 2 rank, 4 repeated peer address, 7 epoch,
//	11 fusion flush tensors
//
// Fields 5, 6, 8, 9, 10 and 12 are retired (chunk bytes, receive timeout,
// algorithm, switch bytes, fusion flush bytes and interval); a task skips
// them.
type collInit struct {
	group string
	rank  int
	addrs []string
	epoch uint64
	opts  CollectiveOptions
}

func encodeCollInit(r *collInit) []byte {
	e := wire.NewEncoder()
	e.String(1, r.group)
	e.Int(2, int64(r.rank))
	for _, a := range r.addrs {
		e.String(4, a)
	}
	e.Uint(7, r.epoch)
	e.Int(11, int64(r.opts.FlushTensors))
	return e.Bytes()
}

func decodeCollInit(req []byte) (*collInit, error) {
	r := &collInit{}
	d := wire.NewDecoder(req)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			if r.group, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 2:
			v, err := d.Int()
			if err != nil {
				return nil, err
			}
			r.rank = int(v)
		case 4:
			a, err := d.StringVal()
			if err != nil {
				return nil, err
			}
			r.addrs = append(r.addrs, a)
		case 7:
			if r.epoch, err = d.Uint(); err != nil {
				return nil, err
			}
		case 11:
			v, err := d.Int()
			if err != nil {
				return nil, err
			}
			r.opts.FlushTensors = int(v)
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	if r.group == "" || len(r.addrs) == 0 {
		return nil, fmt.Errorf("cluster: malformed CollInit")
	}
	return r, nil
}

// handleCollInit joins this task to a TCP collective group: it builds the
// transport endpoint over the advertised peer addresses and registers the
// group membership in the task's resources under the group name, replacing
// (and closing) any previous membership.
func (s *Server) handleCollInit(req []byte) ([]byte, error) {
	r, err := decodeCollInit(req)
	if err != nil {
		return nil, err
	}
	tr, err := collective.NewNetTransport(r.group, r.rank, r.addrs, s.Hub, 0, r.epoch, collective.TransportConfig{})
	if err != nil {
		return nil, err
	}
	s.Res.Colls.Register(r.group, collective.NewGroup(tr, collective.Options{
		Fusion: collective.FusionOptions{FlushTensors: r.opts.FlushTensors},
	}))
	return []byte("ok"), nil
}

// handleCollClose aborts a group: the membership is closed, which poisons
// the local inbox so any op blocked inside one of the group's collectives
// errors out. Request encoding: 1 group.
func (s *Server) handleCollClose(req []byte) ([]byte, error) {
	var group string
	d := wire.NewDecoder(req)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return nil, err
		}
		if f == 1 {
			if group, err = d.StringVal(); err != nil {
				return nil, err
			}
			continue
		}
		if err := d.Skip(wt); err != nil {
			return nil, err
		}
	}
	if group == "" {
		return nil, fmt.Errorf("cluster: malformed CollClose")
	}
	s.Res.Colls.Close(group)
	s.Hub.CloseGroup(group)
	return []byte("ok"), nil
}

// RunOp runs one op per call, its inputs in the request and its output in
// the reply: a debugging path, and what the benchmark's remote-op latency
// probe times. Sessions run remote work as registered partitions instead.
//
// Request encoding:
//
//	1 op, 2 nodeName, 3 attr bytes, 4 repeated input name,
//	5 repeated input tensor bytes
//
// Response: tensor bytes.
type runOpRequest struct {
	op, nodeName string
	attrs        graph.Attrs
	inputNames   []string
	inputs       []*tensor.Tensor
}

func encodeRunOp(r *runOpRequest) ([]byte, error) {
	ab, err := graph.MarshalAttrs(r.attrs)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder()
	e.String(1, r.op)
	e.String(2, r.nodeName)
	e.BytesField(3, ab)
	for _, n := range r.inputNames {
		e.String(4, n)
	}
	for _, t := range r.inputs {
		tb, err := t.Encode(nil)
		if err != nil {
			return nil, err
		}
		e.BytesField(5, tb)
	}
	return e.Bytes(), nil
}

func decodeRunOp(req []byte) (*runOpRequest, error) {
	r := &runOpRequest{}
	d := wire.NewDecoder(req)
	for d.More() {
		f, wt, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			if r.op, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 2:
			if r.nodeName, err = d.StringVal(); err != nil {
				return nil, err
			}
		case 3:
			ab, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			if r.attrs, err = graph.UnmarshalAttrs(ab); err != nil {
				return nil, err
			}
		case 4:
			n, err := d.StringVal()
			if err != nil {
				return nil, err
			}
			r.inputNames = append(r.inputNames, n)
		case 5:
			tb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			t, err := tensor.DecodeAll(tb)
			if err != nil {
				return nil, err
			}
			r.inputs = append(r.inputs, t)
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func (s *Server) handleRunOp(req []byte) ([]byte, error) {
	r, err := decodeRunOp(req)
	if err != nil {
		return nil, err
	}
	ctx := &ops.Context{
		NodeName:   r.nodeName,
		Attrs:      r.attrs,
		InputNames: r.inputNames,
		Resources:  s.Res,
		Scratch:    ops.NewScratch(),
	}
	out, err := ops.Run(r.op, ctx, r.inputs)
	if err != nil {
		return nil, err
	}
	return out.Encode(nil)
}

// Peers is the client side of a cluster: it dials the tasks' partition
// streams for sessions (session.Dialer) and drives the control calls —
// health, collective membership — itself.
type Peers struct {
	spec Spec

	mu      sync.Mutex
	clients map[string]*rpc.Client
	epoch   uint64 // the last collective epoch issued (nextEpoch)
}

// NewPeers creates a client set over a spec.
func NewPeers(spec Spec) *Peers {
	return &Peers{spec: spec, clients: make(map[string]*rpc.Client)}
}

// Spec returns the cluster spec.
func (p *Peers) Spec() Spec { return p.spec }

func (p *Peers) client(job string, task int) (*rpc.Client, error) {
	addr, err := p.spec.Address(job, task)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.clients[addr]
	if !ok {
		c = rpc.Dial(addr)
		p.clients[addr] = c
	}
	return c, nil
}

// local returns the task's Server when it serves in this process and
// co-located edges are on (collective.TransportConfig.LocalEdges, off with
// TFHPC_NO_SHM=1), and nil otherwise: such a task is reached by calling it,
// with no rpc between the caller and the task.
func (p *Peers) local(job string, task int) *Server {
	addr, err := p.spec.Address(job, task)
	if err != nil || !(collective.TransportConfig{}).LocalEdges() {
		return nil
	}
	colocated.mu.Lock()
	defer colocated.mu.Unlock()
	return colocated.m[addr]
}

// call makes one control call on a task: a task in this process (local)
// runs the handler itself, any other task answers over rpc.
func (p *Peers) call(job string, task int, method string, h func(*Server, []byte) ([]byte, error), req []byte) error {
	if srv := p.local(job, task); srv != nil {
		_, err := h(srv, req)
		return err
	}
	c, err := p.client(job, task)
	if err != nil {
		return err
	}
	_, err = c.Call(method, req)
	return err
}

// Session opens a session on g that runs g's nodes placed on
// /job:<job>/task:<task> on that task. A task serving in this process
// (local) runs them in the session itself, against the task's own
// resources, with no stream, partition or encoding between them. Any other
// task runs them as a partition registered over its rpc stream.
func (p *Peers) Session(g *graph.Graph, job string, task int) (*session.Session, error) {
	if _, err := p.spec.Address(job, task); err != nil {
		return nil, err
	}
	if srv := p.local(job, task); srv != nil {
		return session.New(g, srv.Res, session.Options{LocalJob: job, LocalTask: task, Remote: p})
	}
	return session.New(g, nil, session.Options{LocalJob: "client", Remote: p})
}

// DialTask implements session.Dialer: a fresh partition stream to the
// task, multiplexed over the peer's stream connection.
func (p *Peers) DialTask(job string, task int) (*rpc.Stream, error) {
	c, err := p.client(job, task)
	if err != nil {
		return nil, err
	}
	return c.OpenStream(session.PartitionMethod)
}

// RunRemoteOp runs one op on the task named in the device spec through the
// RunOp debugging path; sessions never call it.
func (p *Peers) RunRemoteOp(device graph.DeviceSpec, op, nodeName string, attrs graph.Attrs,
	inputNames []string, inputs []*tensor.Tensor) (*tensor.Tensor, error) {
	task := device.Task
	if task < 0 {
		task = 0
	}
	c, err := p.client(device.Job, task)
	if err != nil {
		return nil, err
	}
	req, err := encodeRunOp(&runOpRequest{op: op, nodeName: nodeName, attrs: attrs, inputNames: inputNames, inputs: inputs})
	if err != nil {
		return nil, err
	}
	resp, err := c.Call("RunOp", req)
	if err != nil {
		return nil, err
	}
	return tensor.DecodeAll(resp)
}

// Health pings a task.
func (p *Peers) Health(job string, task int) error {
	c, err := p.client(job, task)
	if err != nil {
		return err
	}
	_, err = c.Call("Health", nil)
	return err
}

// HealthRetry pings a task under a retry policy: transient connection
// failures (the task is mid-restart) back off and retry, handler errors and
// context expiry are final. The elastic driver's and the serving fleet's
// liveness probe.
func (p *Peers) HealthRetry(ctx context.Context, job string, task int, pol rpc.RetryPolicy) error {
	c, err := p.client(job, task)
	if err != nil {
		return err
	}
	_, err = c.CallRetry(ctx, "Health", nil, pol)
	return err
}

// CollectiveOptions tune a job's collective group (OpenJob). They ship to
// every task, so the whole ring agrees on the message pattern.
type CollectiveOptions struct {
	// FlushTensors is each task's fusion count trigger (AllReduceFused
	// ops): a fused pass starts once this many tensors are pending.
	// 0 leaves only the byte and deadline triggers.
	FlushTensors int
}

// AbortCollective poisons the named group on every reachable task of a job:
// ranks blocked inside one of the group's collectives error out instead of
// waiting for the receive timeout. Best-effort — unreachable tasks are
// skipped (they are likely the reason for the abort).
func (p *Peers) AbortCollective(job, group string) {
	e := wire.NewEncoder()
	e.String(1, group)
	req := e.Bytes()
	for task := 0; task < p.spec.NumTasks(job); task++ {
		p.call(job, task, "CollClose", (*Server).handleCollClose, req)
	}
}

// Close releases all connections.
func (p *Peers) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		c.Close()
	}
	p.clients = map[string]*rpc.Client{}
}

// Local is an in-process cluster: one Server per task of every job, all
// bound to loopback ports — the harness tests and examples use it to stand
// up multi-task topologies in one process.
type Local struct {
	SpecV   Spec
	Servers map[string][]*Server
}

// StartLocal boots count tasks for each named job on 127.0.0.1.
func StartLocal(jobs map[string]int) (*Local, error) {
	l := &Local{SpecV: Spec{}, Servers: map[string][]*Server{}}
	for job, n := range jobs {
		for t := 0; t < n; t++ {
			srv := NewServer(job, t)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				l.Close()
				return nil, err
			}
			l.SpecV[job] = append(l.SpecV[job], addr)
			l.Servers[job] = append(l.Servers[job], srv)
		}
	}
	return l, nil
}

// RunLocal starts a job "worker" of workers tasks in this process, runs f
// over it and closes it again: each application's RunReal is its
// RunCluster under RunLocal.
func RunLocal(workers int, f func(*Peers) error) error {
	lc, err := StartLocal(map[string]int{"worker": workers})
	if err != nil {
		return err
	}
	defer lc.Close()
	peers := NewPeers(lc.Spec())
	defer peers.Close()
	return f(peers)
}

// Spec returns the running cluster's spec.
func (l *Local) Spec() Spec { return l.SpecV }

// Server returns the given task's server.
func (l *Local) Server(job string, task int) *Server { return l.Servers[job][task] }

// Close shuts every task down.
func (l *Local) Close() {
	for _, srvs := range l.Servers {
		for _, s := range srvs {
			s.Close()
		}
	}
}
