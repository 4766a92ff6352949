// Quickstart: the paper's Listing 1 in Go — two random matrices generated
// on the CPU, multiplied on the GPU, fetched through a session, with the
// Run's spans written in TensorFlow-Timeline form (Fig. 3): one span per
// node under the Run's, one lane per device.
package main

import (
	"fmt"
	"log"

	"tfhpc/tf"
)

func main() {
	g := tf.NewGraph()
	var a, b, c *tf.Node
	g.WithDevice("/cpu:0", func() {
		a = g.AddOp("RandomUniform", tf.Attrs{
			"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 1})
		b = g.AddOp("RandomUniform", tf.Attrs{
			"dtype": tf.Float32, "shape": tf.Shape{3, 3}, "seed": 2})
	})
	g.WithDevice("/gpu:0", func() {
		c = g.AddOp("MatMul", nil, a, b)
	})

	tf.EnableTracing()
	sess, err := tf.NewSession(g, nil, tf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := sess.Run(nil, []string{c.Name()}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("c = a x b:")
	m := out[0].F32()
	for i := 0; i < 3; i++ {
		fmt.Printf("  [%8.4f %8.4f %8.4f]\n", m[i*3], m[i*3+1], m[i*3+2])
	}

	// The graph is a language-independent artifact: serialize and reopen.
	buf, err := tf.MarshalGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	g2, err := tf.UnmarshalGraph(buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph round-trips through %d bytes of GraphDef (%d nodes)\n",
		len(buf), g2.NumNodes())

	if err := tf.WriteTraceFile("quickstart_trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("trace written to quickstart_trace.json (chrome://tracing, Perfetto)")
}
