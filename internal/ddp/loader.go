package ddp

import (
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// Loader is how a rank materializes a batch of samples by global id. The
// returned latencies (one per sample, virtual time) may be nil when the
// loader has no timing information.
type Loader interface {
	Len() int
	LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error)
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
	CacheStats() cache.Stats
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

// LoadBatch implements Loader: LoadBatchLazy, then Graph on each view in
// request order. It is the one place plane samples are materialized, so
// duplicate ids cost one fetch but each position gets its own graph.
func (l *PlaneLoader) LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lat, err := l.LoadBatchLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lat, nil
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

// GraphSource is what the PFF/CFF baseline path reads: a storage backend
// that hands out decoded samples (the simulated and real PFF/CFF readers).
type GraphSource interface {
	Len() int
	ReadSample(id int64) (*graph.Graph, error)
}

// TimedSource is a GraphSource that can report per-read modeled latency
// (the simulated PFF/CFF readers implement it).
type TimedSource interface {
	GraphSource
	ReadSampleTimed(id int64) (*graph.Graph, time.Duration, error)
}

// SourceLoader serves batches by reading each sample directly from a
// storage backend — the PFF/CFF baseline path: every batch goes back to the
// (simulated or real) filesystem.
type SourceLoader struct {
	Source GraphSource
}

// Len returns the dataset size.
func (l *SourceLoader) Len() int { return l.Source.Len() }

// LoadBatch implements Loader, reporting per-sample latency when the
// backend supports it.
func (l *SourceLoader) LoadBatch(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	out := make([]*graph.Graph, len(ids))
	var lat []time.Duration
	timed, hasTiming := l.Source.(TimedSource)
	if hasTiming {
		lat = make([]time.Duration, len(ids))
	}
	for i, id := range ids {
		if hasTiming {
			g, d, err := timed.ReadSampleTimed(id)
			if err != nil {
				return nil, nil, err
			}
			out[i] = g
			lat[i] = d
			continue
		}
		g, err := l.Source.ReadSample(id)
		if err != nil {
			return nil, nil, err
		}
		out[i] = g
	}
	return out, lat, nil
}
