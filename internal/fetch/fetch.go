// Package fetch is the shared batch-load engine behind both of DDStore's
// data planes. The in-process RMA store (internal/core) and the TCP chunk
// group (internal/transport) used to carry separate copies of the same
// pipeline — id dedup, cache claims with leader/follower flights, per-owner
// grouping, bounded fan-out, follower waits, latency capture. This package
// owns that pipeline once; a plane plugs in through the small Plane
// interface and contributes only what is genuinely its own: owner
// arithmetic, the wire (RMA Gets, framed TCP multi-gets), and per-plane
// concerns like window-lock epochs or replica failover.
//
// The pipeline, in order:
//
//	ids ──dedup──▶ unique ids ──validate──▶ OwnerOf for every id
//	     ──claim──▶ cache hits / leader flights / follower flights
//	     ──serve──▶ hits decoded from cached bytes (a memory read)
//	     ──group──▶ fetchable ids bucketed by owner, owners sorted
//	     ──fan-out─▶ ≤ Parallelism owners fetched concurrently, each
//	                 wrapped in BeginEpoch/EndEpoch when the plane has them
//	     ──wait───▶ follower flights awaited after own deliveries
//	     ──assemble▶ results written back to every requested position
//
// Every error path fails the flights this load still leads, so coalesced
// waiters in other goroutines never block forever. Per-unique-id latencies
// are recorded into a bounded window; LatencyStats summarizes them as
// p50/p95/p99.
package fetch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/stats"
)

// Deliver hands one fetched sample back to the engine: its
// header-validated raw bytes, the lazy decode over those bytes, and the
// per-sample fetch latency. lz owns whatever buffer reference the plane
// attached when it called graph.DecodeLazy; the engine retains additional
// references (under the cache's shard locks) for cache entries and
// coalesced waiters, so the plane never needs to know who else aliases the
// buffer — it just releases its own handle when its batch loop is done.
type Deliver func(id int64, raw []byte, lz *graph.Lazy, lat time.Duration)

// Plane is what a data plane contributes to the engine: owner arithmetic
// and the actual wire transfer. FetchOwner receives the unique ids grouped
// on one owner and must deliver every one of them (or return an error);
// ids arrive sorted in the batch's first-appearance order. Deliveries are
// serialized by the engine, so FetchOwner needs no locking of its own even
// when several owners are fetched concurrently.
type Plane interface {
	// OwnerOf maps a sample id to its owner token, or errors for ids the
	// plane cannot serve. Owner tokens only need to be stable and sortable:
	// the engine groups by them and fetches owners in ascending order.
	OwnerOf(id int64) (int, error)
	// Local reports whether the owner's samples live in this process's
	// memory. Local ids bypass the cache — they are already memory reads.
	Local(owner int) bool
	// FetchOwner transfers the given ids from one owner, calling deliver
	// once per id with header-validated bytes. tc is the child trace context
	// the engine minted for this owner's sub-request — the zero Context when
	// the load is untraced. A plane with a wire propagates it and merges the
	// server's timing feedback into the span tree; a plane without one
	// ignores it.
	FetchOwner(owner int, ids []int64, tc tracectx.Context, deliver Deliver) error
}

// EpochPlane is the optional lock hook: when a plane implements it, the
// engine brackets every FetchOwner call in BeginEpoch/EndEpoch and charges
// the returned acquisition cost to the first sample delivered from that
// owner (how a per-batch lock amortizes in practice). EndEpoch runs even
// when FetchOwner fails, so no error path can leak an epoch.
type EpochPlane interface {
	Plane
	// BeginEpoch opens an access epoch on owner and returns its cost.
	// Planes without a lock for this owner (or mode) return (0, nil).
	BeginEpoch(owner int) (time.Duration, error)
	// EndEpoch closes the epoch opened by BeginEpoch.
	EndEpoch(owner int) error
}

// Config assembles an Engine.
type Config struct {
	// Plane supplies owner arithmetic and the wire. Required.
	Plane Plane
	// Cache, when non-nil, adds the hot-sample cache with singleflight
	// coalescing over remote ids. When nil the engine skips the claim
	// machinery entirely — no flight maps are ever allocated.
	Cache *cache.Cache
	// Parallelism bounds how many owners one Load fetches from
	// concurrently. 0 means min(#owners, GOMAXPROCS); 1 is the serial
	// per-owner loop.
	Parallelism int
	// Serial forces the serial loop regardless of Parallelism — set under
	// machine models, whose virtual clocks charge costs through a
	// non-thread-safe RNG.
	Serial bool
	// Now is the clock latencies are measured on (a virtual clock under
	// machine models). Nil means wall time.
	Now func() time.Duration
	// OnLocalBytes, when set, charges the cost of reading n cached or
	// coalesced bytes out of local memory (the machine model's LocalRead).
	OnLocalBytes func(n int)
	// ErrPrefix tags engine-originated errors with the owning plane's
	// package name ("core", "transport").
	ErrPrefix string
	// Metrics, when non-nil, receives every per-sample latency into the
	// canonical ddstore_fetch_latency_seconds histogram.
	Metrics *obs.Registry
	// Spans, when non-nil, receives one span per owner fetch and one per
	// cache-hit batch — the engine's contribution to the Chrome trace.
	Spans *obs.SpanRing
}

// latencyWindow is how many recent per-sample latencies LatencyStats
// summarizes.
const latencyWindow = 4096

// LatencySummary is a percentile digest of recent per-sample load
// latencies. Count is the total number of samples ever recorded; the
// percentiles cover the most recent latencyWindow of them.
type LatencySummary struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// Engine runs the shared batch-load pipeline over one Plane. Safe for
// concurrent Loads.
type Engine struct {
	plane   Plane
	epochs  EpochPlane // nil when the plane has no lock hooks
	cache   *cache.Cache
	par     int
	serial  bool
	now     func() time.Duration
	onLocal func(n int)
	prefix  string

	latHist *obs.Histogram // nil unless Config.Metrics was set
	spans   *obs.SpanRing  // nil unless Config.Spans was set

	latMu   sync.Mutex
	window  []time.Duration
	widx    int
	wlen    int
	latSeen int64
}

// New builds an engine from cfg. It panics when cfg.Plane is nil — a plane
// is not optional.
func New(cfg Config) *Engine {
	if cfg.Plane == nil {
		panic("fetch: Config.Plane is required")
	}
	e := &Engine{
		plane:   cfg.Plane,
		cache:   cfg.Cache,
		par:     cfg.Parallelism,
		serial:  cfg.Serial,
		now:     cfg.Now,
		onLocal: cfg.OnLocalBytes,
		prefix:  cfg.ErrPrefix,
		spans:   cfg.Spans,
	}
	if cfg.Metrics != nil {
		e.latHist = obs.FetchLatencyHistogram(cfg.Metrics)
	}
	if ep, ok := cfg.Plane.(EpochPlane); ok {
		e.epochs = ep
	}
	if e.now == nil {
		// Real-time engines record on the shared wall-clock epoch, so span
		// rings from different processes merge into one aligned Chrome
		// trace. Machine models pass their own virtual clocks instead.
		e.now = obs.EpochNow
	}
	if e.prefix == "" {
		e.prefix = "fetch"
	}
	e.window = make([]time.Duration, latencyWindow)
	return e
}

// results collects deliveries across the fan-out workers. One mutex guards
// the lazy/latency maps and the leader-flight table, so planes deliver
// without locking of their own.
type results struct {
	mu      sync.Mutex
	lazies  map[int64]*graph.Lazy
	lats    map[int64]time.Duration
	flights map[int64]*cache.Flight // leader flights still to complete
}

// deliver records one sample and completes its flight, if this load leads
// one. The cache entry gets its own reference on the sample's backing
// buffer (retained here, released by the cache on evict/replace/Reset),
// independent of the one lz already owns.
func (r *results) deliver(id int64, raw []byte, lz *graph.Lazy, lat time.Duration) {
	r.mu.Lock()
	r.lazies[id] = lz
	r.lats[id] = lat
	f, flying := r.flights[id]
	if flying {
		delete(r.flights, id)
	}
	r.mu.Unlock()
	if flying {
		ref := cache.Ref(nil)
		if lr := lz.Ref(); lr != nil {
			lr.Retain()
			ref = lr
		}
		f.DeliverRef(raw, ref)
	}
}

// set records a sample served without a fetch (cache hit, follower wait).
func (r *results) set(id int64, lz *graph.Lazy, lat time.Duration) {
	r.mu.Lock()
	r.lazies[id] = lz
	r.lats[id] = lat
	r.mu.Unlock()
}

// failRemaining fails every flight this load still leads — mandatory on
// every error path, or coalesced waiters block forever.
func (r *results) failRemaining(err error) {
	r.mu.Lock()
	flights := r.flights
	r.flights = nil
	r.mu.Unlock()
	for _, f := range flights {
		f.Fail(err)
	}
}

// releaseAll drops every buffer reference the collected lazies still hold
// — error-path hygiene so an abandoned load returns its pooled buffers
// instead of pinning them until the GC collects the wreckage.
func (r *results) releaseAll() {
	r.mu.Lock()
	for _, lz := range r.lazies {
		lz.Release()
	}
	r.mu.Unlock()
}

// Load runs the pipeline for one batch and returns the decoded graphs and
// per-position latencies, both in request order. Duplicate ids share one
// fetch (and one graph pointer).
func (e *Engine) Load(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	lzs, lats, err := e.LoadLazy(ids, tracectx.Context{})
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(lzs))
	var seen map[int64]*graph.Graph
	for i, lz := range lzs {
		if lz == nil {
			continue
		}
		// Duplicate positions carry independent views over one buffer;
		// materialize once per id so duplicates share a graph pointer (and
		// the extra views just drop their references).
		if g, ok := seen[lz.ID()]; ok {
			out[i] = g
			lz.Release()
			continue
		}
		out[i] = lz.Graph()
		if seen == nil {
			seen = make(map[int64]*graph.Graph, len(lzs))
		}
		seen[lz.ID()] = out[i]
	}
	return out, lats, nil
}

// LoadLazy runs the pipeline for one batch and returns header-validated
// lazy graphs and per-position latencies, both in request order. Tensors
// are not materialized: each Lazy decodes on first Graph call, and a
// caller that never touches a sample's tensors releases its buffer with
// Release instead. Duplicate ids share one fetch, but every position gets
// its own independent view (each holding its own buffer reference), so
// callers consume strictly by position.
//
// tc is the caller's span in a distributed trace (the batch's root, or an
// intermediate): every per-owner fan-out hands the plane a child context
// minted from it. The zero Context means the load is untraced.
func (e *Engine) LoadLazy(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	out := make([]*graph.Lazy, len(ids))
	lats := make([]time.Duration, len(ids))
	if len(ids) == 0 {
		return out, lats, nil
	}

	// Dedup in first-appearance order, validating every id before any
	// cache claim — an invalid id can never strand a flight.
	uniq := make([]int64, 0, len(ids))
	owners := make(map[int64]int, len(ids))
	for _, id := range ids {
		if _, seen := owners[id]; seen {
			continue
		}
		owner, err := e.plane.OwnerOf(id)
		if err != nil {
			return nil, nil, err
		}
		owners[id] = owner
		uniq = append(uniq, id)
	}

	res := &results{
		lazies: make(map[int64]*graph.Lazy, len(uniq)),
		lats:   make(map[int64]time.Duration, len(uniq)),
	}

	// Claim phase: only with a cache, and only for non-local ids. Hits are
	// resolved bytes (plus our own reference on their backing buffer),
	// leader flights are ours to complete, follower flights are someone
	// else's fetch we wait on later.
	type hit struct {
		val []byte
		ref cache.Ref
	}
	toFetch := uniq
	var resolved map[int64]hit
	var followers map[int64]*cache.Flight
	if e.cache != nil {
		toFetch = make([]int64, 0, len(uniq))
		for _, id := range uniq {
			if e.plane.Local(owners[id]) {
				toFetch = append(toFetch, id)
				continue
			}
			val, ref, f := e.cache.ClaimRef(id)
			switch {
			case f == nil:
				if resolved == nil {
					resolved = make(map[int64]hit)
				}
				resolved[id] = hit{val, ref}
			case f.Leader():
				if res.flights == nil {
					res.flights = make(map[int64]*cache.Flight)
				}
				res.flights[id] = f
				toFetch = append(toFetch, id)
			default:
				if followers == nil {
					followers = make(map[int64]*cache.Flight)
				}
				followers[id] = f
			}
		}
	}
	fail := func(err error) error {
		res.failRemaining(err)
		res.releaseAll()
		return err
	}

	// Serve cache hits: a memory read plus a header re-validation; the hit's
	// buffer reference moves into the Lazy. Iterating uniq (not the map)
	// keeps virtual-clock charging deterministic.
	hitStart := e.now()
	var hitBytes int64
	for _, id := range uniq {
		h, ok := resolved[id]
		if !ok {
			continue
		}
		before := e.now()
		if e.onLocal != nil {
			e.onLocal(len(h.val))
		}
		hitBytes += int64(len(h.val))
		lz, err := graph.DecodeLazy(h.val, h.ref)
		if err != nil {
			// Cannot happen: only header-validated bytes are cached.
			if h.ref != nil {
				h.ref.Release()
			}
			return nil, nil, fail(fmt.Errorf("%s: cached sample %d: %w", e.prefix, id, err))
		}
		res.set(id, lz, e.now()-before)
	}
	if e.spans != nil && len(resolved) > 0 {
		e.spans.Record(obs.Span{
			Name: "cache-hits", Cat: "fetch", Owner: -1,
			Samples: len(resolved), Bytes: hitBytes, CacheHit: true,
			Start: hitStart, Dur: e.now() - hitStart,
			TraceID: tc.TraceID, ParentID: tc.SpanID,
		})
	}

	// Group fetchable ids by owner; fetch owners in ascending order.
	if len(toFetch) > 0 {
		byOwner := make(map[int][]int64)
		for _, id := range toFetch {
			byOwner[owners[id]] = append(byOwner[owners[id]], id)
		}
		keys := make([]int, 0, len(byOwner))
		for owner := range byOwner {
			keys = append(keys, owner)
		}
		sort.Ints(keys)
		if err := e.forEachOwner(keys, byOwner, res, tc); err != nil {
			return nil, nil, fail(err)
		}
		for _, id := range toFetch {
			if _, ok := res.lazies[id]; !ok {
				return nil, nil, fail(fmt.Errorf("%s: sample %d was not delivered by its owner", e.prefix, id))
			}
		}
	}

	// Followers wait only after our own fetches delivered, so one load
	// carrying both the leader and a follower of an id cannot deadlock
	// against itself. Each follower receives its own buffer reference
	// (retained by the leader's delivery), which moves into the Lazy.
	for _, id := range uniq {
		f, ok := followers[id]
		if !ok {
			continue
		}
		before := e.now()
		raw, ref, err := f.WaitRef()
		if err != nil {
			return nil, nil, fail(fmt.Errorf("%s: coalesced fetch of sample %d: %w", e.prefix, id, err))
		}
		if e.onLocal != nil {
			e.onLocal(len(raw))
		}
		lz, err := graph.DecodeLazy(raw, ref)
		if err != nil {
			if ref != nil {
				ref.Release()
			}
			return nil, nil, fail(fmt.Errorf("%s: coalesced sample %d: %w", e.prefix, id, err))
		}
		res.set(id, lz, e.now()-before)
	}

	// Duplicate positions each receive their own view (one buffer
	// reference per position, via Clone), so releasing or materializing
	// one slot never invalidates another slot of the same id.
	if len(uniq) == len(ids) {
		for pos, id := range ids {
			out[pos] = res.lazies[id]
			lats[pos] = res.lats[id]
		}
	} else {
		taken := make(map[int64]bool, len(uniq))
		for pos, id := range ids {
			lz := res.lazies[id]
			if lz != nil && taken[id] {
				lz = lz.Clone()
			}
			taken[id] = true
			out[pos] = lz
			lats[pos] = res.lats[id]
		}
	}
	e.record(uniq, res.lats)
	return out, lats, nil
}

// fetchOwner brackets one owner's transfer in its epoch (when the plane
// has one) and folds the lock cost into the first delivered sample. With
// span tracing on, the whole owner transfer becomes one "fetch-owner" span
// carrying the owner token, sample count, and delivered byte volume. Under
// a distributed trace, each owner's sub-request gets its own child context
// — the span id the server's segments hang off in the merged trace (the
// child of an untraced load's zero context is the zero context).
func (e *Engine) fetchOwner(owner int, ids []int64, res *results, tc tracectx.Context) error {
	child := tc.Child()
	var start time.Duration
	var fetchedBytes int64 // written only by this owner's deliver chain
	if e.spans != nil {
		start = e.now()
	}
	var lockCost time.Duration
	if e.epochs != nil {
		cost, err := e.epochs.BeginEpoch(owner)
		if err != nil {
			return err
		}
		lockCost = cost
	}
	first := true
	deliver := func(id int64, raw []byte, lz *graph.Lazy, lat time.Duration) {
		if first {
			lat += lockCost
			first = false
		}
		fetchedBytes += int64(len(raw))
		res.deliver(id, raw, lz, lat)
	}
	err := e.plane.FetchOwner(owner, ids, child, deliver)
	if e.epochs != nil {
		if uerr := e.epochs.EndEpoch(owner); uerr != nil && err == nil {
			err = uerr
		}
	}
	if e.spans != nil {
		e.spans.Record(obs.Span{
			Name: "fetch-owner", Cat: "fetch", Owner: owner,
			Samples: len(ids), Bytes: fetchedBytes,
			Start: start, Dur: e.now() - start,
			TraceID: child.TraceID, SpanID: child.SpanID, ParentID: tc.SpanID,
		})
	}
	return err
}

// parallelism resolves the worker budget for a batch touching n owners.
func (e *Engine) parallelism(n int) int {
	if n <= 1 || e.serial {
		return 1
	}
	p := e.par
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	return p
}

// forEachOwner fetches every owner, fanning out across a bounded worker
// pool. Errors are recorded per owner and the lowest-owner error is
// returned — the same deterministic choice the serial loop makes — but
// every owner still completes, so its flights are delivered or failed
// either way.
func (e *Engine) forEachOwner(keys []int, byOwner map[int][]int64, res *results, tc tracectx.Context) error {
	par := e.parallelism(len(keys))
	if par <= 1 {
		for _, owner := range keys {
			if err := e.fetchOwner(owner, byOwner[owner], res, tc); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = e.fetchOwner(keys[i], byOwner[keys[i]], res, tc)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// record appends one batch's per-unique-id latencies to the window and the
// metrics histogram.
func (e *Engine) record(uniq []int64, lats map[int64]time.Duration) {
	e.latMu.Lock()
	for _, id := range uniq {
		e.window[e.widx] = lats[id]
		e.widx = (e.widx + 1) % len(e.window)
		if e.wlen < len(e.window) {
			e.wlen++
		}
	}
	e.latSeen += int64(len(uniq))
	e.latMu.Unlock()
	if e.latHist != nil {
		for _, id := range uniq {
			e.latHist.ObserveDuration(lats[id])
		}
	}
}

// LatencyStats digests the recent per-sample latency window into
// p50/p95/p99. The zero summary is returned before any load.
func (e *Engine) LatencyStats() LatencySummary {
	e.latMu.Lock()
	defer e.latMu.Unlock()
	s := LatencySummary{Count: e.latSeen}
	if e.wlen == 0 {
		return s
	}
	ds := make([]time.Duration, e.wlen)
	copy(ds, e.window[:e.wlen])
	s.P50 = stats.DurationPercentile(ds, 50)
	s.P95 = stats.DurationPercentile(ds, 95)
	s.P99 = stats.DurationPercentile(ds, 99)
	return s
}
