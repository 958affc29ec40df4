// Package fetch is the shared batch-load engine behind both of DDStore's
// data planes. The in-process RMA store (internal/core) and the TCP chunk
// group (internal/transport) used to carry separate copies of the same
// pipeline — id dedup, cache claims with leader/follower flights, per-owner
// grouping, fan-out, follower waits, latency capture. This package owns that
// pipeline once; a plane plugs in through the small Plane interface and
// contributes only what is genuinely its own: owner arithmetic, the wire
// (RMA Gets, framed TCP multi-gets), and per-plane concerns like
// window-lock epochs or replica failover.
//
// The pipeline, in order:
//
//	ids ──dedup──▶ unique ids ──validate──▶ OwnerOf for every id
//	     ──claim──▶ cache hits / leader flights / follower flights
//	     ──serve──▶ hits validated from cached bytes (a memory read)
//	     ──group──▶ fetchable ids bucketed by owner, owners sorted
//	     ──issue──▶ every owner's transfer started (Plane.Issue)
//	     ──collect▶ every owner collected once, in owner order, then a
//	                second time for owners that left ids undelivered;
//	                every delivery validated into its view by the engine
//	     ──wait───▶ follower flights awaited after own deliveries
//	     ──assemble▶ results written back to every requested position
//
// All of it runs on the calling goroutine: owners overlap because every
// transfer is in flight before the first reply is read, the shape of the
// paper's non-blocking one-sided Get.
//
// One load's bookkeeping is one slot table (type slot), not a map per
// concern. Every error path fails the flights this load still leads, so
// coalesced waiters in other goroutines never block forever, and gives back
// every other claim and reference it holds. Every load returns one latency
// per position, and feeds one observation per unique id into the metrics
// histogram, if there is one.
package fetch

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// Deliver hands one fetched sample to the engine: its raw encoded bytes,
// one reference on the buffer backing them (nil for memory that outlives
// every load: a local window, GC-owned reply bytes), and the per-sample
// fetch latency. The engine is the one place a sample's header is
// validated. An error means the bytes were refused (a corrupt header, or an
// id this load is not waiting for): the id is still undelivered, and the
// plane may fetch it elsewhere or give up. Either way the reference is the
// engine's from the call on — it moves into the sample's view or is
// released — and the engine retains more for a cache entry (or copies the
// sample out of a larger buffer for it) and, under the cache's shard
// locks, for coalesced waiters, so a plane never needs to know who else
// aliases a buffer: it drops its own handle when its loop is done.
type Deliver func(id int64, raw []byte, ref graph.Ref, lat time.Duration) error

// Pending is one owner's transfer between Issue and Collect, kept in the
// load's slot table, so a healthy load allocates none.
type Pending struct {
	Owner int
	// IDs are the unique ids on Owner, in first-appearance order; the plane
	// may reorder them in place. A second Collect sees only those still
	// undelivered.
	IDs []int64
	// Trace is the child context the engine minted for this owner's
	// sub-request (the zero Context when the load is untraced). A plane with
	// a wire propagates it and merges the server's timing feedback into the
	// span tree; a plane without one ignores it.
	Trace tracectx.Context
	Again bool // set for the second Collect
	// State is the plane's own, from Issue to Collect and from the first
	// Collect to the second.
	State any

	start time.Duration // the owner span's start, when spans are on
}

// Plane is what a data plane contributes to the engine: owner arithmetic
// and the wire transfer, split in two so one goroutine can have every
// owner's transfer in flight at once. The engine issues every owner of a
// load, collects each once in owner order (even after another owner has
// failed), then collects again each that returned nil with ids undelivered.
// The lowest owner's error fails the load.
type Plane interface {
	// OwnerOf maps a sample id to its owner token, or errors for ids the
	// plane cannot serve. Owner tokens only need to be stable and sortable:
	// the engine groups by them and collects owners in ascending order.
	OwnerOf(id int64) (int, error)
	// Local reports whether the owner's samples live in this process's
	// memory. Local ids bypass the cache — they are already memory reads.
	Local(owner int) bool
	// Issue starts p's transfer without waiting for it. A transfer it
	// cannot start is left for Collect, which reports any error.
	Issue(p *Pending)
	// Collect finishes p's transfer, calling deliver once per id. The first
	// Collect may wait on the owner's reply and nothing else, never on what
	// another pending of the load may hold, and may leave ids for the
	// second, which may wait on anything.
	Collect(p *Pending, deliver Deliver) error
}

// Config assembles an Engine.
type Config struct {
	// Plane supplies owner arithmetic and the wire. Required.
	Plane Plane
	// Cache, when non-nil, adds the hot-sample cache with singleflight
	// coalescing over remote ids. When nil the engine skips the claim
	// machinery entirely — no flight maps are ever allocated.
	Cache *cache.Cache
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

// Engine runs the shared batch-load pipeline over one Plane. Safe for
// concurrent Loads.
type Engine struct {
	plane   Plane
	cache   *cache.Cache
	now     func() time.Duration
	onLocal func(n int)
	prefix  string

	latHist *obs.Histogram // nil unless Config.Metrics was set
	spans   *obs.SpanRing  // nil unless Config.Spans was set
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
		now:     cfg.Now,
		onLocal: cfg.OnLocalBytes,
		prefix:  cfg.ErrPrefix,
		spans:   cfg.Spans,
	}
	if cfg.Metrics != nil {
		e.latHist = obs.FetchLatencyHistogram(cfg.Metrics)
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
	return e
}

// slot is one unique id of a load — everything the engine holds for it —
// so every pass (claim, group, deliver, wait, assemble, record, and the
// error path that gives it all back) is a walk over one table, in
// first-appearance order.
type slot struct {
	id    int64
	owner int
	first int32 // first position asking for id: the slot's view is views[first]
	done  bool  // views[first] holds the sample and its buffer reference
	lat   time.Duration
	// flight is the cache claim still open: a leader's until the sample is
	// delivered, a follower's until it is waited for.
	flight *cache.Flight
	// hit and ref are a cache hit's bytes (never empty: only validated bytes
	// are cached) and our reference on their buffer, until the hit is
	// served and the reference moves into the view.
	hit []byte
	ref cache.Ref
	// pend, on the first slot of an owner's group, is that owner's transfer.
	pend Pending
}

// ours reports whether the load itself still has to fetch the slot: it is
// uncached, local, or a flight this load leads.
func (s *slot) ours() bool {
	return !s.done && s.hit == nil && (s.flight == nil || s.flight.Leader())
}

// load is the state of one LoadLazy, which runs on the calling goroutine
// alone.
type load struct {
	e     *Engine
	out   []*graph.Lazy
	lats  []time.Duration
	views []graph.Lazy // one per position, behind out; a repeat's is a clone of its slot's
	// slabs is what the views materialize into, held by value so that a
	// load whose views are never materialized allocates nothing for it.
	slabs graph.Slabs
	slots []slot
	// Four int32 lists carved from one allocation. slotOf maps a position to
	// its slot. table is the load's one lookup keyed by sample id, open-
	// addressed over slot index + 1 (0 is empty): dedup fills it, deliver
	// reads it. order lists the slots to fetch by (owner, slot); starts is
	// where each owner's group begins in it and, last, where it ends. ids
	// holds order's sample ids, so a group is a sub-slice of both.
	slotOf, table, order, starts []int32
	ids                          []int64
}

// cell returns the table cell where id is, or where it would go. The table
// is a power of two long and never full, so a Fibonacci hash's top bits pick
// the first cell and a linear probe ends.
func (ld *load) cell(id int64) *int32 {
	mask := uint64(len(ld.table) - 1)
	for i := uint64(id) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(mask); ; i++ {
		if c := &ld.table[i&mask]; *c == 0 || ld.slots[*c-1].id == id {
			return c
		}
	}
}

// deliver is the load's Deliver: it validates the sample's header into the
// slot's view and completes the flight, if this load leads one, with an
// entry of the cache's own (see own). Refused bytes give their reference
// back.
func (ld *load) deliver(id int64, raw []byte, ref graph.Ref, lat time.Duration) error {
	var err error
	if c := *ld.cell(id); c == 0 || !ld.slots[c-1].ours() {
		err = fmt.Errorf("%s: sample %d delivered but not awaited", ld.e.prefix, id)
	} else if err = ld.slabs.DecodeInto(int(ld.slots[c-1].first), raw, ref); err == nil {
		s := &ld.slots[c-1]
		s.lat, s.done = lat, true
		if f := s.flight; f != nil {
			s.flight = nil
			f.DeliverRef(own(raw, ref))
		}
		return nil
	}
	if ref != nil {
		ref.Release()
	}
	return err
}

// own returns a cache entry for raw that pins only raw's own size class,
// holding a reference independent of the one the view owns (released by
// the cache on evict or replace). A part of a larger arena buffer, such as
// one sample of a batch reply, and bytes with no reference at all, such as
// one sample of a two-sided exchange reply, are copied into a buffer of
// their own, so the reply is recycled or collected once its views let go;
// any other buffer gains a reference.
func own(raw []byte, ref graph.Ref) ([]byte, cache.Ref) {
	if b, ok := ref.(*bufarena.Buf); ref == nil || ok && b.Cap() > bufarena.SizeFor(len(raw)) {
		c := bufarena.Get(len(raw))
		copy(c.Bytes(), raw)
		return c.Bytes(), c
	}
	ref.Retain()
	return raw, ref
}

// serve decodes bytes that needed no fetch of ours — a cache hit, or a
// follower's share of another load's fetch — into the slot's view, which
// takes over ref; on error ref is released. It cannot fail: only
// header-validated bytes are ever cached.
func (ld *load) serve(s *slot, raw []byte, ref cache.Ref, what string) error {
	if err := ld.slabs.DecodeInto(int(s.first), raw, ref); err != nil {
		if ref != nil {
			ref.Release()
		}
		return fmt.Errorf("%s: %s sample %d: %w", ld.e.prefix, what, s.id, err)
	}
	s.done = true
	return nil
}

// fail gives back everything the load still holds, on every error path
// after the first claim: filled views drop their references and hits not
// yet served theirs; flights it leads are failed, or coalesced waiters in
// other loads block forever; flights it follows are abandoned, or the
// reference the leader retains for each counted follower never comes back.
func (ld *load) fail(err error) error {
	for i := range ld.slots {
		switch s := &ld.slots[i]; {
		case s.done:
			ld.views[s.first].Release()
		case s.ref != nil:
			s.ref.Release()
		case s.flight == nil:
		case s.flight.Leader():
			s.flight.Fail(err)
		default:
			s.flight.Abandon()
		}
	}
	return err
}

// LoadLazy runs the pipeline for one batch and returns header-validated
// lazy graphs and per-position latencies, both in request order. Tensors
// are not materialized: each Lazy decodes on first Graph call, and a
// caller that never touches a sample's tensors releases its buffer with
// Release instead. Duplicate ids share one fetch, but every position gets
// its own independent view (each holding its own buffer reference), so
// callers consume strictly by position. The views of one load are one
// allocation, and their Graphs two more (graph.Slabs): the first Graph call
// on any view sizes one tensor slab and one Graph slab for every view
// still unmaterialized. Keeping a single Lazy keeps the load's views and
// bookkeeping (not their buffers) from the collector; keeping a single
// Graph keeps its load's slabs.
//
// tc is the caller's span in a distributed trace (the batch's root, or an
// intermediate): every per-owner fan-out hands the plane a child context
// minted from it. The zero Context means the load is untraced.
func (e *Engine) LoadLazy(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	ld, err := e.load(ids, tc)
	if err != nil {
		return nil, nil, err
	}
	return ld.out, ld.lats, nil
}

func (e *Engine) load(ids []int64, tc tracectx.Context) (*load, error) {
	n := len(ids)
	if n == 0 {
		return &load{out: []*graph.Lazy{}, lats: []time.Duration{}}, nil
	}
	size := 1 << bits.Len(uint(2*n-1)) // the table: at least twice the ids, so probes stay short
	ints := make([]int32, 3*n+1+size)
	ld := &load{
		e: e, out: make([]*graph.Lazy, n), lats: make([]time.Duration, n),
		views: make([]graph.Lazy, n), slots: make([]slot, 0, n),
		slotOf: ints[:n:n], order: ints[n : n : 2*n], starts: ints[2*n : 2*n : 3*n+1], table: ints[3*n+1:],
	}
	ld.slabs.Bind(ld.views)

	// Dedup in first-appearance order, validating every id before any
	// cache claim — an invalid id can never strand a flight.
	for pos, id := range ids {
		c := ld.cell(id)
		if *c == 0 {
			owner, err := e.plane.OwnerOf(id)
			if err != nil {
				return nil, err
			}
			ld.slots = append(ld.slots, slot{id: id, owner: owner, first: int32(pos)})
			*c = int32(len(ld.slots))
		}
		ld.slotOf[pos] = *c - 1
	}

	// Claim phase: only with a cache, and only for non-local ids. Hits are
	// resolved bytes (plus our own reference on their backing buffer),
	// leader flights are ours to complete, follower flights are someone
	// else's fetch we wait on later.
	if e.cache != nil {
		for i := range ld.slots {
			s := &ld.slots[i]
			if !e.plane.Local(s.owner) {
				s.hit, s.ref, s.flight = e.cache.ClaimRef(s.id)
			}
		}

		// Serve cache hits: a memory read plus a header re-validation; the
		// hit's buffer reference moves into the view. One clock read ends a
		// hit and starts the next, so n hits read the clock n+1 times.
		hitStart := e.now()
		last := hitStart
		var hits, hitBytes int
		for i := range ld.slots {
			s := &ld.slots[i]
			if s.hit == nil {
				continue
			}
			if e.onLocal != nil {
				e.onLocal(len(s.hit))
			}
			hits, hitBytes = hits+1, hitBytes+len(s.hit)
			hit, ref := s.hit, s.ref
			s.hit, s.ref = nil, nil
			if err := ld.serve(s, hit, ref, "cached"); err != nil {
				return nil, ld.fail(err)
			}
			now := e.now()
			s.lat, last = now-last, now
		}
		if e.spans != nil && hits > 0 {
			e.spans.Record(obs.Span{
				Name: "cache-hits", Cat: "fetch", Owner: -1,
				Samples: hits, Bytes: int64(hitBytes), CacheHit: true,
				Start: hitStart, Dur: last - hitStart,
				TraceID: tc.TraceID, ParentID: tc.SpanID,
			})
		}
	}

	// Group what is ours to fetch by owner, owners ascending and each
	// owner's slots in first-appearance order: every slot goes in behind
	// the last one of its own or a lower owner.
	for i := range ld.slots {
		s := &ld.slots[i]
		if !s.ours() {
			continue
		}
		lo, hi := 0, len(ld.order)
		for lo < hi {
			if mid := (lo + hi) / 2; ld.slots[ld.order[mid]].owner <= s.owner {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ld.order = slices.Insert(ld.order, lo, int32(i))
	}
	if len(ld.order) > 0 {
		ld.ids = make([]int64, len(ld.order))
		for k, i := range ld.order {
			s := &ld.slots[i]
			ld.ids[k] = s.id
			if k == 0 || ld.slots[ld.order[k-1]].owner != s.owner {
				ld.starts = append(ld.starts, int32(k))
			}
		}
		ld.starts = append(ld.starts, int32(len(ld.order)))
		if err := e.fetch(ld, tc); err != nil {
			return nil, ld.fail(err)
		}
		for _, i := range ld.order {
			if !ld.slots[i].done {
				return nil, ld.fail(fmt.Errorf("%s: sample %d was not delivered by its owner", e.prefix, ld.slots[i].id))
			}
		}
	}

	// Followers wait only after our own fetches delivered, so one load
	// carrying both the leader and a follower of an id cannot deadlock
	// against itself. Each follower receives its own buffer reference
	// (retained by the leader's delivery), which moves into the view.
	for i := range ld.slots {
		s := &ld.slots[i]
		if s.done {
			continue
		}
		before := e.now()
		raw, ref, err := s.flight.WaitRef()
		s.flight = nil
		if err != nil {
			return nil, ld.fail(fmt.Errorf("%s: coalesced fetch of sample %d: %w", e.prefix, s.id, err))
		}
		if e.onLocal != nil {
			e.onLocal(len(raw))
		}
		if err := ld.serve(s, raw, ref, "coalesced"); err != nil {
			return nil, ld.fail(err)
		}
		s.lat = e.now() - before
	}

	// Duplicate positions each receive their own view (one buffer
	// reference per position, via CloneInto), so releasing or materializing
	// one slot never invalidates another slot of the same id.
	for pos, i := range ld.slotOf {
		s := &ld.slots[i]
		v := &ld.views[s.first]
		if int(s.first) != pos {
			v.CloneInto(&ld.views[pos])
			v = &ld.views[pos]
		}
		ld.out[pos], ld.lats[pos] = v, s.lat
	}
	if e.latHist != nil {
		for i := range ld.slots {
			e.latHist.ObserveDuration(ld.slots[i].lat)
		}
	}
	return ld, nil
}

// pending returns owner group g's transfer, kept on its first slot.
func (ld *load) pending(g int) *Pending {
	return &ld.slots[ld.order[ld.starts[g]]].pend
}

// narrow lists owner group g's undelivered ids in its stretch of ld.ids.
func (ld *load) narrow(g int) []int64 {
	lo, hi := ld.starts[g], ld.starts[g+1]
	rest := ld.ids[lo:lo]
	for _, i := range ld.order[lo:hi] {
		if s := &ld.slots[i]; !s.done {
			rest = append(rest, s.id)
		}
	}
	return rest
}

// fetch runs the load's owner groups split-phase on the calling goroutine.
// The first round collects every issued pending even after an owner has
// failed, since an unread reply would desynchronise its connection; the
// second stops at the first failing owner, so the lowest failing owner's
// error is the one returned.
func (e *Engine) fetch(ld *load, tc tracectx.Context) error {
	deliver, owners := ld.deliver, len(ld.starts)-1
	for g := 0; g < owners; g++ {
		lo, hi := ld.starts[g], ld.starts[g+1]
		p := ld.pending(g)
		*p = Pending{Owner: ld.slots[ld.order[lo]].owner, IDs: ld.ids[lo:hi], Trace: tc.Child()}
		if e.spans != nil {
			p.start = e.now()
		}
		e.plane.Issue(p)
	}
	failed, err := owners, error(nil)
	for g := 0; g < owners; g++ {
		p := ld.pending(g)
		if cerr := e.plane.Collect(p, deliver); cerr != nil {
			if err == nil {
				failed, err = g, cerr
			}
		} else if p.IDs = ld.narrow(g); len(p.IDs) > 0 {
			p.Again = true
			continue
		}
		e.span(ld, g, tc)
	}
	for g := 0; g < failed; g++ {
		if p := ld.pending(g); p.Again {
			cerr := e.plane.Collect(p, deliver)
			e.span(ld, g, tc)
			if cerr != nil {
				return cerr
			}
		}
	}
	return err
}

// span records owner group g's transfer, Issue to last Collect, as one
// "fetch-owner" span with the owner token, sample count and delivered bytes,
// under the pending's child context (the span id the server's segments hang
// off in the merged trace).
func (e *Engine) span(ld *load, g int, tc tracectx.Context) {
	if e.spans == nil {
		return
	}
	lo, hi := ld.starts[g], ld.starts[g+1]
	p := ld.pending(g)
	var fetchedBytes int64
	for _, i := range ld.order[lo:hi] {
		if s := &ld.slots[i]; s.done {
			fetchedBytes += int64(ld.views[s.first].EncodedSize())
		}
	}
	e.spans.Record(obs.Span{
		Name: "fetch-owner", Cat: "fetch", Owner: p.Owner,
		Samples: int(hi - lo), Bytes: fetchedBytes,
		Start: p.start, Dur: e.now() - p.start,
		TraceID: p.Trace.TraceID, SpanID: p.Trace.SpanID, ParentID: tc.SpanID,
	})
}
