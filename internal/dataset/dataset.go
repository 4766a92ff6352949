// Package dataset implements the input-pipeline half of the paper's
// "data-driven" formulation: datasets of tensor tuples that can be built
// from memory or tile files, sharded across workers, transformed, and
// prefetched so data is ready for immediate consumption by the compute
// pipeline (Section II.A of the paper).
package dataset

import (
	"fmt"
	"io"
	"sync"

	"tfhpc/internal/npy"
	"tfhpc/internal/tensor"
)

// Element is one dataset entry: a tuple of tensors.
type Element = []*tensor.Tensor

// Dataset produces independent iterators over a logical sequence.
type Dataset interface {
	Iterator() Iterator
}

// Iterator walks one pass; Next returns io.EOF at the end. Close releases
// what the iterator holds — a prefetch's producer goroutine and its
// buffered elements — so a consumer that stops early must call it; it is
// safe after io.EOF and more than once.
type Iterator interface {
	Next() (Element, error)
	Close()
}

// --- sources ---

type sliceDataset struct{ elems []Element }

// shard keeps every n-th element from id on.
func (d *sliceDataset) shard(n, id int) Dataset {
	var elems []Element
	for i := id; i < len(d.elems); i += n {
		elems = append(elems, d.elems[i])
	}
	return &sliceDataset{elems: elems}
}

type sliceIterator struct {
	elems []Element
	pos   int
}

// FromElements wraps an in-memory list.
func FromElements(elems ...Element) Dataset {
	return &sliceDataset{elems: elems}
}

func (d *sliceDataset) Iterator() Iterator { return &sliceIterator{elems: d.elems} }

func (it *sliceIterator) Next() (Element, error) {
	if it.pos >= len(it.elems) {
		return nil, io.EOF
	}
	e := it.elems[it.pos]
	it.pos++
	return e, nil
}

func (it *sliceIterator) Close() {}

// FromFiles lists .npy tile files; each element is (index, tensor) where
// index is the element's position in paths as an int64 scalar — the
// structure the matmul and FFT applications consume. Files load lazily at
// iteration time.
func FromFiles(paths []string) Dataset {
	return &fileDataset{paths: paths, stride: 1}
}

// fileDataset is the entries first, first+stride, ... of paths: a shard
// narrows the selection, never the list, so indices stay global.
type fileDataset struct {
	paths         []string
	first, stride int
}

func (d *fileDataset) shard(n, id int) Dataset {
	return &fileDataset{paths: d.paths, first: d.first + id*d.stride, stride: d.stride * n}
}

type fileIterator struct {
	d   *fileDataset
	pos int
}

func (d *fileDataset) Iterator() Iterator { return &fileIterator{d: d, pos: d.first} }

func (it *fileIterator) Next() (Element, error) {
	if it.pos >= len(it.d.paths) {
		return nil, io.EOF
	}
	idx := it.pos
	t, err := npy.Load(it.d.paths[idx])
	it.pos += it.d.stride
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %q: %w", it.d.paths[idx], err)
	}
	return Element{tensor.ScalarI64(int64(idx)), t}, nil
}

func (it *fileIterator) Close() {}

// --- transforms ---

type mapDataset struct {
	src Dataset
	fn  func(Element) (Element, error)
}

type mapIterator struct {
	src Iterator
	fn  func(Element) (Element, error)
}

// Map applies fn lazily to every element.
func Map(src Dataset, fn func(Element) (Element, error)) Dataset {
	return &mapDataset{src: src, fn: fn}
}

func (d *mapDataset) Iterator() Iterator { return &mapIterator{src: d.src.Iterator(), fn: d.fn} }

func (it *mapIterator) Next() (Element, error) {
	e, err := it.src.Next()
	if err != nil {
		return nil, err
	}
	return it.fn(e)
}

func (it *mapIterator) Close() { it.src.Close() }

type shardDataset struct {
	src   Dataset
	n, id int
}

type shardIterator struct {
	src   Iterator
	n, id int
	pos   int
}

// listDataset is a source backed by a list of entries, so a shard can
// select its entries before reading any of them.
type listDataset interface {
	shard(n, id int) Dataset
}

// Shard keeps every n-th element starting at index id — how the workers
// split the shared tile list ("the list is shared by workers and they
// individually load these tiles"). Over a list-backed source (FromElements,
// FromFiles, or a shard of one) it selects the shard's entries up front,
// tf.data's shard-before-read rule: a FromFiles shard opens only its own
// files, and each element keeps its index in the full list. Any other
// source is iterated in full and the other shards' elements dropped.
func Shard(src Dataset, n, id int) Dataset {
	if n <= 0 || id < 0 || id >= n {
		panic(fmt.Sprintf("dataset: bad shard %d/%d", id, n))
	}
	if l, ok := src.(listDataset); ok {
		return l.shard(n, id)
	}
	return &shardDataset{src: src, n: n, id: id}
}

func (d *shardDataset) Iterator() Iterator {
	return &shardIterator{src: d.src.Iterator(), n: d.n, id: d.id}
}

func (it *shardIterator) Next() (Element, error) {
	for {
		e, err := it.src.Next()
		if err != nil {
			return nil, err
		}
		keep := it.pos%it.n == it.id
		it.pos++
		if keep {
			return e, nil
		}
	}
}

func (it *shardIterator) Close() { it.src.Close() }

type repeatDataset struct {
	src   Dataset
	count int
}

type repeatIterator struct {
	d     *repeatDataset
	cur   Iterator
	round int
}

// Repeat cycles the source count times (count <= 0 panics; infinite repeat
// is a deadlock hazard in the fixed-size experiments this library targets).
func Repeat(src Dataset, count int) Dataset {
	if count <= 0 {
		panic("dataset: Repeat needs count >= 1")
	}
	return &repeatDataset{src: src, count: count}
}

func (d *repeatDataset) Iterator() Iterator {
	return &repeatIterator{d: d, cur: d.src.Iterator()}
}

func (it *repeatIterator) Next() (Element, error) {
	for {
		e, err := it.cur.Next()
		if err == io.EOF {
			it.round++
			if it.round >= it.d.count {
				return nil, io.EOF
			}
			it.cur = it.d.src.Iterator()
			continue
		}
		return e, err
	}
}

func (it *repeatIterator) Close() { it.cur.Close() }

// --- prefetch ---

type prefetchDataset struct {
	src    Dataset
	buffer int
}

type prefetchIterator struct {
	ch   chan prefetched
	done chan struct{}
	once sync.Once
}

type prefetched struct {
	e   Element
	err error
}

// Prefetch decouples production from consumption with a background goroutine
// and a bounded buffer, like tf.data prefetch: I/O overlaps compute.
func Prefetch(src Dataset, buffer int) Dataset {
	if buffer < 1 {
		buffer = 1
	}
	return &prefetchDataset{src: src, buffer: buffer}
}

func (d *prefetchDataset) Iterator() Iterator {
	it := &prefetchIterator{ch: make(chan prefetched, d.buffer), done: make(chan struct{})}
	src := d.src.Iterator()
	go func() {
		defer close(it.ch)
		defer src.Close()
		for {
			e, err := src.Next()
			if err == io.EOF {
				return
			}
			select {
			case it.ch <- prefetched{e: e, err: err}:
			case <-it.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return it
}

func (it *prefetchIterator) Next() (Element, error) {
	p, ok := <-it.ch
	if !ok {
		return nil, io.EOF
	}
	return p.e, p.err
}

// Close stops the producer and waits for it to exit, dropping whatever it
// had buffered. An element it is reading when Close is called is read to
// the end first.
func (it *prefetchIterator) Close() {
	it.once.Do(func() { close(it.done) })
	for range it.ch {
	}
}

// Collect drains an iterator into a slice and closes it (test/debug
// helper).
func Collect(it Iterator) ([]Element, error) {
	defer it.Close()
	var out []Element
	for {
		e, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}
