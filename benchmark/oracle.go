package main

import (
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// oracle is the byte oracle: the dataset regenerated from its generator,
// kept as id → (encoded length, CRC32). Every sample a workload receives is
// checked against it, so a wrong byte anywhere on the path is a counted
// failure and not a fast run.
type oracle struct {
	size []uint32
	crc  []uint32
	// total is the encoded size of the whole dataset.
	total int64

	mismatches atomic.Int64
}

func newDataset(name string, n int) (*datasets.Dataset, error) {
	cfg := datasets.Config{NumGraphs: n}
	switch name {
	case "homolumo":
		return datasets.HomoLumo(cfg), nil
	case "ising":
		return datasets.Ising(cfg), nil
	}
	return nil, fmt.Errorf("benchmark: unknown dataset %q", name)
}

func buildOracle(name string, n int) (*oracle, error) {
	d, err := newDataset(name, n)
	if err != nil {
		return nil, err
	}
	o := &oracle{size: make([]uint32, n), crc: make([]uint32, n)}
	var buf []byte
	for id := 0; id < n; id++ {
		g, err := d.Sample(int64(id))
		if err != nil {
			return nil, fmt.Errorf("benchmark: oracle sample %d: %w", id, err)
		}
		buf = g.AppendTo(buf[:0])
		o.size[id] = uint32(len(buf))
		o.crc[id] = crc32.ChecksumIEEE(buf)
		o.total += int64(len(buf))
	}
	return o, nil
}

// rangeBytes is the encoded size of samples [lo, hi).
func (o *oracle) rangeBytes(lo, hi int64) int64 {
	var n int64
	for id := lo; id < hi; id++ {
		n += int64(o.size[id])
	}
	return n
}

// checker verifies one worker's samples. Outside the measured window every
// sample is compared in full (CRC32 over all its bytes); inside it every
// sample's id and length are compared and every sixteenth sample's bytes.
type checker struct {
	o       *oracle
	full    bool
	n       uint64
	scratch []byte
	// bytes is the encoded size of every sample that passed.
	bytes int64
}

const crcEvery = 16

func (c *checker) wantBytes() bool {
	c.n++
	return c.full || c.n%crcEvery == 0
}

// raw checks the encoded bytes of sample id.
func (c *checker) raw(id int64, b []byte) bool {
	ok := id >= 0 && id < int64(len(c.o.size)) && uint32(len(b)) == c.o.size[id]
	if ok && c.wantBytes() {
		ok = crc32.ChecksumIEEE(b) == c.o.crc[id]
	}
	if !ok {
		c.o.mismatches.Add(1)
		return false
	}
	c.bytes += int64(len(b))
	return true
}

// lazy checks a not-yet-materialised view of sample id; the view stays
// usable.
func (c *checker) lazy(id int64, l *graph.Lazy) bool {
	ok := l != nil && id >= 0 && id < int64(len(c.o.size)) &&
		l.ID() == id && uint32(l.EncodedSize()) == c.o.size[id]
	if ok && c.wantBytes() {
		c.scratch = l.AppendTo(c.scratch[:0])
		ok = crc32.ChecksumIEEE(c.scratch) == c.o.crc[id]
	}
	if !ok {
		c.o.mismatches.Add(1)
		return false
	}
	c.bytes += int64(l.EncodedSize())
	return true
}
