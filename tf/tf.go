// Package tf is the public facade of the runtime — the API surface a user
// program imports, mirroring the shape of the TensorFlow Python API the
// paper's applications are written against: build a Graph with device
// placement, run it through a Session, scale out with a cluster of Servers
// resolved from Slurm, keep state in variables and stream data through FIFO
// queues and Datasets.
//
// A minimal program (the paper's Listing 1):
//
//	g := tf.NewGraph()
//	var a, b, c *tf.Node
//	g.WithDevice("/cpu:0", func() {
//		a = g.AddOp("RandomUniform", tf.Attrs{"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 1})
//		b = g.AddOp("RandomUniform", tf.Attrs{"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 2})
//	})
//	g.WithDevice("/gpu:0", func() { c = g.AddOp("MatMul", nil, a, b) })
//	sess, _ := tf.NewSession(g, nil, tf.Options{})
//	out, _ := sess.Run(nil, []string{c.Name()}, nil)
package tf

import (
	"tfhpc/internal/checkpoint"
	"tfhpc/internal/cluster"
	"tfhpc/internal/dataset"
	"tfhpc/internal/graph"
	"tfhpc/internal/queue"
	"tfhpc/internal/session"
	"tfhpc/internal/telemetry"
	"tfhpc/internal/tensor"
)

// Tensor types.
type (
	// Tensor is a dense n-rank array, the value on every graph edge.
	Tensor = tensor.Tensor
	// DType enumerates element types.
	DType = tensor.DType
	// Shape is the per-dimension extent list.
	Shape = tensor.Shape
	// RNG is the deterministic generator used across the library.
	RNG = tensor.RNG
)

// Element dtypes.
const (
	Float32    = tensor.Float32
	Float64    = tensor.Float64
	Complex64  = tensor.Complex64
	Complex128 = tensor.Complex128
	Int32      = tensor.Int32
	Int64      = tensor.Int64
	Bool       = tensor.Bool
)

// Tensor constructors.
var (
	NewTensor     = tensor.New
	FromF32       = tensor.FromF32
	FromF64       = tensor.FromF64
	FromC128      = tensor.FromC128
	FromI64       = tensor.FromI64
	ScalarF32     = tensor.ScalarF32
	ScalarF64     = tensor.ScalarF64
	ScalarI64     = tensor.ScalarI64
	RandomUniform = tensor.RandomUniform
	NewRNG        = tensor.NewRNG
)

// Graph construction.
type (
	// Graph is a dataflow graph under construction or execution.
	Graph = graph.Graph
	// Node is one operation instance.
	Node = graph.Node
	// Attrs carries node attributes.
	Attrs = graph.Attrs
	// DeviceSpec is a parsed "/job:worker/task:0/device:GPU:0" placement.
	DeviceSpec = graph.DeviceSpec
)

var (
	// NewGraph returns an empty graph.
	NewGraph = graph.New
	// ParseDevice parses a device string.
	ParseDevice = graph.ParseDevice
	// MarshalGraph serializes a graph (bounded at 2 GiB, as in TF).
	MarshalGraph = graph.MarshalGraph
	// UnmarshalGraph reopens a serialized graph.
	UnmarshalGraph = graph.UnmarshalGraph
)

// Session execution.
type (
	// Session executes a graph against task-local resources.
	Session = session.Session
	// Options configures locality, remote forwarding and parallelism.
	Options = session.Options
	// Resources hosts a task's variables and queues.
	Resources = session.Resources
)

var (
	// NewSession binds a validated graph to resources.
	NewSession = session.New
	// NewResources allocates fresh variable and queue stores.
	NewResources = session.NewResources
)

// Distributed runtime.
type (
	// ClusterSpec maps job names to task addresses (Listing 2).
	ClusterSpec = cluster.Spec
	// Server is one task: it owns resources and runs the graph partitions
	// sessions register on it.
	Server = cluster.Server
	// Peers is the client side of a cluster; it implements the session's
	// Dialer.
	Peers = cluster.Peers
	// SlurmResolver derives a ClusterSpec from a Slurm allocation.
	SlurmResolver = cluster.SlurmResolver
	// JobSpec names a job and its task count for the resolver.
	JobSpec = cluster.JobSpec
	// LocalCluster is an in-process loopback cluster for tests and examples.
	LocalCluster = cluster.Local
)

var (
	// NewServer creates a task server.
	NewServer = cluster.NewServer
	// NewPeers dials a cluster.
	NewPeers = cluster.NewPeers
	// StartLocalCluster boots one server per task on loopback TCP.
	StartLocalCluster = cluster.StartLocal
)

// Data pipeline.
type (
	// Dataset is a re-iterable sequence of tensor tuples.
	Dataset = dataset.Dataset
	// Iterator walks one dataset pass.
	Iterator = dataset.Iterator
	// FIFOQueue is a bounded blocking queue of tensor tuples.
	FIFOQueue = queue.FIFO
)

var (
	// FromElements builds an in-memory dataset.
	FromElements = dataset.FromElements
	// FromFiles builds a dataset of (index, tensor) from .npy files.
	FromFiles = dataset.FromFiles
	// ShardDataset splits a dataset across workers.
	ShardDataset = dataset.Shard
	// PrefetchDataset overlaps production with consumption.
	PrefetchDataset = dataset.Prefetch
	// MapDataset transforms elements lazily.
	MapDataset = dataset.Map
	// NewQueue creates a FIFO queue (capacity 0 = unbounded).
	NewQueue = queue.New
)

// Checkpoint is a saved variable snapshot with graph identity and step.
type Checkpoint = checkpoint.Checkpoint

// State and tooling.
var (
	// CaptureCheckpoint snapshots a session's variables.
	CaptureCheckpoint = checkpoint.Capture
	// LoadCheckpoint reads a checkpoint file.
	LoadCheckpoint = checkpoint.Load
	// RestoreCheckpoint loads and applies a checkpoint file.
	RestoreCheckpoint = checkpoint.Restore
	// EnableTracing turns span recording on for the whole process: every
	// Session.Run then records a span per node it runs, one lane per device
	// (the TensorFlow Timeline view of Fig. 3).
	EnableTracing = telemetry.Enable
	// WriteTraceFile writes every span recorded so far as Chrome
	// trace-event JSON (chrome://tracing, Perfetto).
	WriteTraceFile = telemetry.WriteTraceFile
)
