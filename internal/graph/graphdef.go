package graph

import (
	"fmt"
	"io"

	"tfhpc/internal/tensor"
	"tfhpc/internal/wire"
)

// GraphDef serialization. The format is ProtoBuf-style (see internal/wire):
//
//	GraphDef:   repeated field 1: NodeDef
//	NodeDef:    1 name, 2 op, 3 repeated input name, 4 device,
//	            5 repeated control-input name, 6 repeated AttrEntry
//	AttrEntry:  1 key, 2 kind, then one of 3 int, 4 double, 5 string,
//	            6 bool, 7 dtype, 8 shape (repeated varint), 9 tensor bytes
//
// Graphs are language- and platform-independent: a graph built here can be
// written to disk, shipped over RPC and re-opened elsewhere, like the paper
// describes for Python-built graphs reopened from C++. Encoding enforces the
// 2 GiB message ceiling.

const (
	attrKindInt = iota + 1
	attrKindDouble
	attrKindString
	attrKindBool
	attrKindDType
	attrKindShape
	attrKindTensor
)

// MarshalGraph serializes g.
func MarshalGraph(g *Graph) ([]byte, error) {
	e := wire.NewEncoder()
	for _, n := range g.nodes {
		var nodeErr error
		e.Message(1, func(ne *wire.Encoder) {
			ne.String(1, n.name)
			ne.String(2, n.op)
			for _, in := range n.inputs {
				ne.String(3, in.name)
			}
			ne.String(4, n.device.String())
			for _, c := range n.controls {
				ne.String(5, c.name)
			}
			// Deterministic attr order.
			keys := make([]string, 0, len(n.attrs))
			for k := range n.attrs {
				keys = append(keys, k)
			}
			sortStrings(keys)
			for _, k := range keys {
				v := n.attrs[k]
				ne.Message(6, func(ae *wire.Encoder) {
					if err := encodeAttrEntry(ae, k, v); err != nil && nodeErr == nil {
						nodeErr = fmt.Errorf("graph: node %q: %w", n.name, err)
					}
				})
			}
		})
		if nodeErr != nil {
			return nil, nodeErr
		}
		if int64(e.Len()) > wire.MaxMessageSize {
			return nil, fmt.Errorf("graph: GraphDef exceeds 2 GiB at node %q: %w", n.name, wire.ErrMessageTooLarge)
		}
	}
	return e.Bytes(), nil
}

// UnmarshalGraph reconstructs a graph from MarshalGraph output.
func UnmarshalGraph(buf []byte) (*Graph, error) {
	if int64(len(buf)) > wire.MaxMessageSize {
		return nil, wire.ErrMessageTooLarge
	}
	g := New()
	type pending struct {
		node     *Node
		inputs   []string
		controls []string
	}
	var pend []pending
	d := wire.NewDecoder(buf)
	for {
		field, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if field != 1 || wt != wire.TBytes {
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		nodeBuf, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		p, err := decodeNode(g, nodeBuf)
		if err != nil {
			return nil, err
		}
		pend = append(pend, p)
	}
	// Resolve edges now that all nodes exist.
	for _, p := range pend {
		for _, name := range p.inputs {
			in := g.Lookup(name)
			if in == nil {
				return nil, fmt.Errorf("graph: node %q references unknown input %q", p.node.name, name)
			}
			p.node.inputs = append(p.node.inputs, in)
		}
		for _, name := range p.controls {
			c := g.Lookup(name)
			if c == nil {
				return nil, fmt.Errorf("graph: node %q references unknown control dep %q", p.node.name, name)
			}
			p.node.controls = append(p.node.controls, c)
		}
	}
	return g, g.Validate()
}

func decodeNode(g *Graph, buf []byte) (struct {
	node     *Node
	inputs   []string
	controls []string
}, error) {
	out := struct {
		node     *Node
		inputs   []string
		controls []string
	}{}
	var name, op, device string
	attrs := Attrs{}
	d := wire.NewDecoder(buf)
	for {
		field, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		switch field {
		case 1:
			if name, err = d.StringVal(); err != nil {
				return out, err
			}
		case 2:
			if op, err = d.StringVal(); err != nil {
				return out, err
			}
		case 3:
			s, err := d.StringVal()
			if err != nil {
				return out, err
			}
			out.inputs = append(out.inputs, s)
		case 4:
			if device, err = d.StringVal(); err != nil {
				return out, err
			}
		case 5:
			s, err := d.StringVal()
			if err != nil {
				return out, err
			}
			out.controls = append(out.controls, s)
		case 6:
			ab, err := d.Bytes()
			if err != nil {
				return out, err
			}
			k, v, err := decodeAttr(ab)
			if err != nil {
				return out, err
			}
			attrs[k] = v
		default:
			if err := d.Skip(wt); err != nil {
				return out, err
			}
		}
	}
	if name == "" || op == "" {
		return out, fmt.Errorf("graph: node missing name or op")
	}
	spec, err := ParseDevice(device)
	if err != nil {
		return out, err
	}
	n := g.AddNamedOp(name, op, attrs)
	n.device = spec
	out.node = n
	return out, nil
}

// encodeAttrEntry writes key+kind+value of one attribute into an AttrEntry
// message body.
func encodeAttrEntry(ae *wire.Encoder, k string, v any) error {
	ae.String(1, k)
	switch val := v.(type) {
	case int:
		ae.Uint(2, attrKindInt)
		ae.Int(3, int64(val))
	case int64:
		ae.Uint(2, attrKindInt)
		ae.Int(3, val)
	case uint64:
		ae.Uint(2, attrKindInt)
		ae.Int(3, int64(val))
	case float64:
		ae.Uint(2, attrKindDouble)
		ae.Double(4, val)
	case string:
		ae.Uint(2, attrKindString)
		ae.String(5, val)
	case bool:
		ae.Uint(2, attrKindBool)
		ae.Bool(6, val)
	case tensor.DType:
		ae.Uint(2, attrKindDType)
		ae.Uint(7, uint64(val))
	case tensor.Shape:
		ae.Uint(2, attrKindShape)
		ae.Message(8, func(se *wire.Encoder) {
			for _, d := range val {
				se.Uint(1, uint64(d))
			}
		})
	case *tensor.Tensor:
		buf, err := val.Encode(nil)
		if err != nil {
			return fmt.Errorf("attr %q: %w", k, err)
		}
		ae.Uint(2, attrKindTensor)
		ae.BytesField(9, buf)
	default:
		return fmt.Errorf("attr %q has unsupported type %T", k, v)
	}
	return nil
}

// MarshalAttrs serializes an attribute map (repeated field-1 AttrEntry),
// used by the RPC layer to ship node attributes for remote op execution.
func MarshalAttrs(attrs Attrs) ([]byte, error) {
	e := wire.NewEncoder()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var firstErr error
	for _, k := range keys {
		e.Message(1, func(ae *wire.Encoder) {
			if err := encodeAttrEntry(ae, k, attrs[k]); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	return e.Bytes(), firstErr
}

// UnmarshalAttrs parses MarshalAttrs output.
func UnmarshalAttrs(buf []byte) (Attrs, error) {
	attrs := Attrs{}
	d := wire.NewDecoder(buf)
	for {
		f, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if f != 1 {
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
			continue
		}
		ab, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		k, v, err := decodeAttr(ab)
		if err != nil {
			return nil, err
		}
		attrs[k] = v
	}
	return attrs, nil
}

func decodeAttr(buf []byte) (string, any, error) {
	d := wire.NewDecoder(buf)
	var key string
	var kind uint64
	var val any
	for {
		field, wt, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", nil, err
		}
		switch field {
		case 1:
			if key, err = d.StringVal(); err != nil {
				return "", nil, err
			}
		case 2:
			if kind, err = d.Uint(); err != nil {
				return "", nil, err
			}
		case 3:
			v, err := d.Int()
			if err != nil {
				return "", nil, err
			}
			val = int(v)
		case 4:
			v, err := d.Double()
			if err != nil {
				return "", nil, err
			}
			val = v
		case 5:
			v, err := d.StringVal()
			if err != nil {
				return "", nil, err
			}
			val = v
		case 6:
			v, err := d.Bool()
			if err != nil {
				return "", nil, err
			}
			val = v
		case 7:
			v, err := d.Uint()
			if err != nil {
				return "", nil, err
			}
			val = tensor.DType(v)
		case 8:
			sb, err := d.Bytes()
			if err != nil {
				return "", nil, err
			}
			sd := wire.NewDecoder(sb)
			var shape tensor.Shape
			for {
				_, _, err := sd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return "", nil, err
				}
				dim, err := sd.Uint()
				if err != nil {
					return "", nil, err
				}
				shape = append(shape, int(dim))
			}
			val = shape
		case 9:
			tb, err := d.Bytes()
			if err != nil {
				return "", nil, err
			}
			t, err := tensor.DecodeAll(tb)
			if err != nil {
				return "", nil, err
			}
			val = t
		default:
			if err := d.Skip(wt); err != nil {
				return "", nil, err
			}
		}
	}
	if key == "" || kind == 0 {
		return "", nil, fmt.Errorf("graph: attr missing key or kind")
	}
	if val == nil {
		// Nothing encodes one, and it could not be re-encoded.
		return "", nil, fmt.Errorf("graph: attr %q has no value", key)
	}
	return key, val, nil
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
