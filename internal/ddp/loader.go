package ddp

import (
	"time"

	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// Loader is how a rank loads a batch of samples by global id, the GNN's
// input. The returned latencies (one per sample, virtual time) may be nil
// when the loader has no timing information. No ids give a nil batch.
type Loader interface {
	Len() int
	LoadBatch(ids []int64) (*graph.Batch, []time.Duration, error)
}

// DataPlane is the batch-loading surface both DDStore planes expose: the
// in-process RMA store (core.Store) and the TCP client group
// (transport.Group) satisfy it identically, because both route a load
// through the shared fetch engine (internal/fetch). A load returns
// header-validated views over the pooled wire buffers, with tensor decode
// deferred to first touch, under the caller's trace context — the zero
// Context when the load is untraced.
type DataPlane interface {
	Len() int
	LoadLazyTraced(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error)
}

// PlaneLoader serves batches from either DDStore data plane. It replaces
// the former per-plane StoreLoader/GroupLoader pair — one adapter, two
// planes.
type PlaneLoader struct {
	Plane DataPlane
	// Trace opens a sampled root trace per batch: the engine's
	// per-owner spans hang off it, and on the TCP plane every per-owner
	// wire request propagates a child context to the servers, whose timing
	// trailers come back as nested "server" spans.
	Trace bool
	// Spans, when non-nil with Trace set, receives one client-side root
	// span per traced batch ("load-batch", category "train"), the parent of
	// the fetch and server spans sharing its trace id.
	Spans *obs.SpanRing
}

// Len returns the dataset size.
func (l *PlaneLoader) Len() int { return l.Plane.Len() }

// LoadBatch implements Loader: LoadBatchLazy, then graph.BatchFromWire.
// Duplicate ids cost one fetch, and each position gets its own stretch of
// the batch. A load of no ids still goes to the plane — a two-sided store
// loads collectively — and returns a nil batch.
func (l *PlaneLoader) LoadBatch(ids []int64) (*graph.Batch, []time.Duration, error) {
	views, lat, err := l.LoadBatchLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	if len(views) == 0 {
		return nil, lat, nil
	}
	b, err := graph.BatchFromWire(views)
	if err != nil {
		return nil, nil, err
	}
	return b, lat, nil
}

// LoadBatchLazy returns the batch as lazy views instead of materialized
// graphs, threading buffer ownership straight from the wire to the caller
// — no copy at the loader seam. The caller must consume each view exactly
// once: Graph() to materialize (which releases the underlying buffer
// reference) or Release() to drop it.
func (l *PlaneLoader) LoadBatchLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error) {
	var tc tracectx.Context
	if l.Trace {
		tc = tracectx.New(true)
	}
	start := obs.EpochNow()
	out, lat, err := l.Plane.LoadLazyTraced(ids, tc)
	if l.Trace && l.Spans != nil {
		l.Spans.Record(obs.Span{
			Name: "load-batch", Cat: "train", Owner: -1, Samples: len(ids),
			Start: start, Dur: obs.EpochNow() - start,
			TraceID: tc.TraceID, SpanID: tc.SpanID,
		})
	}
	return out, lat, err
}

// Source is what the PFF/CFF baseline path reads: a storage backend that
// appends sample id's wire bytes to buf, as stored, and reports the modeled
// time the read took (the simulated readers charge it to the rank's clock).
type Source interface {
	Len() int
	AppendSampleTimed(buf []byte, id int64) ([]byte, time.Duration, error)
}

// SourceLoader serves batches by reading each sample directly from a
// storage backend — the PFF/CFF baseline path: every batch goes back to the
// (simulated or real) filesystem, one read per position, into a buffer the
// loader reuses. Not safe for concurrent use.
type SourceLoader struct {
	Source Source
	buf    []byte
	views  []graph.Lazy
	ptrs   []*graph.Lazy
}

// Len returns the dataset size.
func (l *SourceLoader) Len() int { return l.Source.Len() }

// LoadBatch implements Loader, reporting each read's modeled latency.
func (l *SourceLoader) LoadBatch(ids []int64) (*graph.Batch, []time.Duration, error) {
	if len(ids) == 0 {
		return nil, nil, nil
	}
	if cap(l.views) < len(ids) {
		l.views, l.ptrs = make([]graph.Lazy, len(ids)), make([]*graph.Lazy, len(ids))
	}
	var slabs graph.Slabs
	slabs.Bind(l.views[:len(ids)])
	lat, ptrs := make([]time.Duration, len(ids)), l.ptrs[:len(ids)]
	l.buf = l.buf[:0]
	for i, id := range ids {
		start := len(l.buf)
		var err error
		if l.buf, lat[i], err = l.Source.AppendSampleTimed(l.buf, id); err != nil {
			return nil, nil, err
		}
		// A view keeps its bytes when a later append moves buf: append
		// never writes to the array it leaves.
		if err := slabs.DecodeInto(i, l.buf[start:], nil); err != nil {
			return nil, nil, err
		}
		ptrs[i] = &l.views[i]
	}
	b, err := graph.BatchFromWire(ptrs)
	if err != nil {
		return nil, nil, err
	}
	return b, lat, nil
}
