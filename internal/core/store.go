// Package core implements DDStore, the paper's contribution: an in-memory
// distributed data store for globally-shuffled sample loading during
// distributed data-parallel GNN training.
//
// A store is defined by DS = (c, w, f) (paper §3.1):
//
//   - c — chunking: the dataset's T samples are striped into contiguous
//     chunks distributed over the ranks, so all post-preload reads are
//     memory reads.
//   - w — width: ranks are partitioned into r = N/w replica groups of w
//     ranks; each group holds a complete replica of the dataset striped
//     over its members. Smaller widths mean more replicas, more memory, and
//     shorter (often intra-node) fetch distances.
//   - f — communication: samples are fetched from other ranks of the
//     caller's group with one-sided RMA (MPI_Win_lock(MPI_LOCK_SHARED) +
//     MPI_Get + MPI_Win_unlock), so the owner's CPU never participates.
//
// The four architecture components of paper §3.2 map to: the preloader
// (Open reading a SampleSource), the data registry (every group member's
// packed end offsets, shared across the group by one Allgather), the data
// loader (LoadLazyTraced), and the one-sided communication layer
// (internal/comm's RMA windows).
package core

import (
	"fmt"
	"slices"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/comm"
	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/trace"
)

// SampleSource is anything the preloader can read a dataset from: the PFF
// and CFF stores, which read their stored bytes, and the dataset
// generators, which generate in wire encoding, all satisfy it. AppendSample
// appends sample id to buf in wire encoding and returns the extended
// buffer; the preloader hands it the window's buffer, so no sample is
// decoded or re-encoded on the way in.
type SampleSource interface {
	Name() string
	Len() int
	AppendSample(buf []byte, id int64) ([]byte, error)
}

// Options configures a Store.
type Options struct {
	// Width is the replica-group size w. 0 means the communicator size
	// (a single replica striped over all ranks, the paper's default).
	// Width must divide the communicator size.
	Width int
	// Profiler, if set, receives Preload and MPI-RMA region timings.
	Profiler *trace.Profiler
	// Framework selects the remote-fetch design: one-sided RMA (default)
	// or the two-sided request/response alternative (see framework.go).
	Framework Framework
	// LockPerSample disables the per-owner lock amortization: every remote
	// Get opens and closes its own access epoch. Exists for the abl-lock
	// ablation; measurably slower, never better.
	LockPerSample bool
	// NonBlocking issues overlapped non-blocking Gets (MPI_Rget-style)
	// within each owner epoch instead of sequential blocking Gets.
	NonBlocking bool
	// CacheBytes, if positive, adds a byte-budgeted cache over remotely
	// fetched sample bytes: repeat loads of a cached id cost a memory read
	// instead of a fetch, and concurrent misses for the same id (e.g. the
	// prefetch worker racing the training loop) coalesce into one fetch.
	// Local-chunk reads bypass the cache — they are already memory reads.
	CacheBytes int64
	// Metrics, if set, receives the engine's fetch-latency histogram, and
	// the cache's event counters when there is no Profiler to take them
	// (see eventSink).
	Metrics *obs.Registry
	// Spans, if set, receives per-owner fetch spans for the Chrome trace.
	Spans *obs.SpanRing
}

// eventSink is the one place this store's cache events are counted: the
// rank's Profiler when there is one — whoever owns it folds it into a
// registry when the run is over (obs.AddProfiler) — else the registry's
// event family directly, else nowhere. Never both: an event counted live
// and folded again would read double.
func (o Options) eventSink() cache.Counters {
	switch {
	case o.Profiler != nil:
		return o.Profiler
	case o.Metrics != nil:
		return obs.EventSink(o.Metrics)
	}
	return nil
}

// Store is one rank's handle on a DDStore instance. Create it collectively
// with Open; afterwards every rank can Load arbitrary sample ids.
type Store struct {
	world *comm.Comm
	group *comm.Comm
	win   *comm.Win

	total    int // T: dataset size in samples
	width    int // w
	replicas int // r = N/w

	buf []byte // this rank's chunk: concatenated encoded samples
	// ends is the registry: ends[g] is group rank g's packed end offsets,
	// the very slice g packed, shared read-only by the whole group.
	ends   [][]uint32
	starts []int64 // chunk boundary: group rank g owns [starts[g], starts[g+1])
	myLo   int64
	myHi   int64
	prof   *trace.Profiler
	opts   Options
	cache  *cache.Cache // remote-sample cache; nil when CacheBytes <= 0
	// engine is the shared batch-load pipeline (internal/fetch); this store
	// plugs in as its RMA/two-sided plane via storePlane.
	engine *fetch.Engine

	// twoSided is the two-sided framework's per-load exchange (unused by
	// RMA stores, whose loads take no lock).
	twoSided twoSidedLoad

	// Stats accumulated by Load (atomic: concurrent Load callers bump them
	// without a lock).
	stats statsCounters
	// epochs refcounts shared-lock epochs so concurrent Loads can overlap
	// access to the same owner.
	epochs epochRefs
}

// Stats counts the loader's traffic.
type Stats struct {
	LocalReads   int64
	RemoteGets   int64
	BytesLocal   int64
	BytesRemote  int64
	LockAcquires int64
}

// chunkStarts computes the balanced striping of total samples over w group
// members: member g owns [starts[g], starts[g+1]).
func chunkStarts(total, w int) []int64 {
	starts := make([]int64, w+1)
	per := total / w
	rem := total % w
	var lo int64
	for g := 0; g < w; g++ {
		starts[g] = lo
		lo += int64(per)
		if g < rem {
			lo++
		}
	}
	starts[w] = int64(total)
	return starts
}

// chunkOwner inverts chunkStarts(total, w) in closed form: the first
// total%w members own per+1 samples each, the rest per, so id's member
// follows from one division. id must lie in [0, total).
func chunkOwner(id int64, total, w int) int {
	per, rem := int64(total/w), int64(total%w)
	if big := rem * (per + 1); id >= big {
		return int(rem + (id-big)/per) // per > 0 here: per == 0 makes big == total
	}
	return int(id / (per + 1))
}

// Open collectively creates the store: every rank of c must call Open with
// the same source and options. Each rank preloads only its own chunk from
// the source, registers it in an RMA window scoped to its replica group,
// and builds the group-wide registry.
func Open(c *comm.Comm, src SampleSource, opts Options) (*Store, error) {
	n := c.Size()
	width := opts.Width
	if width == 0 {
		width = n
	}
	if width < 1 || width > n {
		return nil, fmt.Errorf("core: width %d out of range [1,%d]", width, n)
	}
	if n%width != 0 {
		return nil, fmt.Errorf("core: width %d does not divide %d ranks", width, n)
	}
	total := src.Len()
	if total == 0 {
		return nil, fmt.Errorf("core: source %q is empty", src.Name())
	}

	s := &Store{
		world:    c,
		opts:     opts,
		total:    total,
		width:    width,
		replicas: n / width,
		prof:     opts.Profiler,
	}
	if opts.CacheBytes > 0 {
		s.cache = cache.New(cache.Options{
			MaxBytes: opts.CacheBytes, Counters: opts.eventSink(),
		})
	}

	// Replica groups: w consecutive ranks per group, matching node-packed
	// placement so small widths become intra-node groups.
	group, err := c.Split(c.Rank()/width, c.Rank())
	if err != nil {
		return nil, err
	}
	s.group = group
	s.starts = chunkStarts(total, width)
	s.myLo = s.starts[group.Rank()]
	s.myHi = s.starts[group.Rank()+1]

	// Preload: append this rank's chunk from the source into one packed
	// buffer.
	preloadStart := clockNow(c)
	packed, err := new(graph.Packer).Pack(s.myLo, s.myHi, src.AppendSample)
	if err != nil {
		return nil, fmt.Errorf("core: preload: %w", err)
	}
	s.buf = slices.Clip(packed.Buf)
	if s.prof != nil {
		s.prof.Add(trace.RegionPreload, clockNow(c)-preloadStart)
	}

	// Registry: every member's end offsets locate its samples in its
	// window, and owners are implied by the deterministic chunk boundaries.
	// The gather shares each member's ends by reference — in a real MPI
	// deployment each process would hold its own copy of a few MB (or an
	// MPI-3 shared-memory window per node); here sharing keeps a 1536-rank
	// simulation from replicating it 1536 times.
	if s.ends, err = group.Allgather(packed.Ends); err != nil {
		return nil, err
	}
	for g, ends := range s.ends {
		if want := s.starts[g+1] - s.starts[g]; int64(len(ends)) != want {
			return nil, fmt.Errorf("core: member %d has %d end offsets for %d samples", g, len(ends), want)
		}
	}

	// Communication layer: expose the chunk via an RMA window on the group.
	win, err := group.CreateWindow(s.buf)
	if err != nil {
		return nil, err
	}
	s.win = win
	if opts.Framework == FrameworkTwoSided {
		s.twoSided.ids = make([][]int64, width)
	}

	// The batch-load pipeline itself — dedup, cache claims, per-owner
	// fan-out, follower waits, latency capture — lives in the shared engine;
	// storePlane contributes only the RMA/two-sided wire, run owner by owner
	// on the loading goroutine, so a machine model's virtual clock is
	// charged in one deterministic order.
	s.engine = fetch.New(fetch.Config{
		Plane: storePlane{s: s},
		Cache: s.cache,
		Now:   func() time.Duration { return c.Clock().Now() },
		OnLocalBytes: func(n int) {
			if m := c.Machine(); m != nil {
				c.Clock().Advance(m.LocalRead(int64(n)))
			}
		},
		ErrPrefix: "core",
		Metrics:   opts.Metrics,
		Spans:     opts.Spans,
	})
	return s, nil
}

func clockNow(c *comm.Comm) time.Duration {
	return c.Clock().Now()
}

// span locates sample id, owned by group rank owner, in the owner's window:
// it ends at the owner's end offset for it and starts at the previous one,
// or at 0 for the owner's first sample.
func (s *Store) span(owner int, id int64) (offset, length int) {
	ends := s.ends[owner]
	k := id - s.starts[owner]
	var start uint32
	if k > 0 {
		start = ends[k-1]
	}
	return int(start), int(ends[k] - start)
}

// Len returns the dataset size in samples.
func (s *Store) Len() int { return s.total }

// Width returns the replica-group size w.
func (s *Store) Width() int { return s.width }

// Replicas returns r = N/w, the number of dataset replicas held in memory.
func (s *Store) Replicas() int { return s.replicas }

// LocalRange returns the sample-id range [lo, hi) held in this rank's
// memory.
func (s *Store) LocalRange() (lo, hi int64) { return s.myLo, s.myHi }

// MemoryBytes returns the size of this rank's chunk buffer.
func (s *Store) MemoryBytes() int64 { return int64(len(s.buf)) }

// Stats returns a snapshot of the loader traffic counters.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// CacheStats returns the remote-sample cache's counters; the zero Stats
// when the store has no cache.
func (s *Store) CacheStats() cache.Stats {
	if s.cache == nil {
		return cache.Stats{}
	}
	return s.cache.Stats()
}

// OwnerOf returns the group rank owning sample id: the paper's fixed
// striping of the dataset over the replica group's w members.
func (s *Store) OwnerOf(id int64) (int, error) {
	if id < 0 || id >= int64(s.total) {
		return 0, fmt.Errorf("core: sample %d out of range [0,%d)", id, s.total)
	}
	return chunkOwner(id, s.total, s.width), nil
}

// LoadLazyTraced fetches the given sample ids (a shuffled batch) and
// returns them in request order as header-validated graph.Lazy views over
// their wire buffers, with the per-sample virtual-time cost for the latency
// CDF experiments. Local ids are served from this rank's memory; remote ids
// are fetched from their owners with one-sided Gets, grouping ids by owner
// so each owner's window lock is acquired once (the lock cost lands on the
// first sample fetched from that owner, mirroring how a real per-batch lock
// amortizes). On a two-sided store the load is instead one collective
// exchange over the replica group, which every member enters once per load
// (see Framework). The whole pipeline — dedup, cache claims, per-owner
// fan-out, coalesced-fetch waits — runs in the shared engine
// (internal/fetch).
//
// The float/int tensors are built only if the caller asks for the Graph, so
// a consumer that just re-encodes (a prefetch stash, a proxy) never pays the
// decode. The caller owns the returned views and must either materialize
// (Graph releases the buffer reference) or Release each one. tc is the
// caller's span in a distributed trace — the engine's per-owner spans hang
// off it — and the zero Context means untraced; the same contract holds on
// the TCP plane (transport.Group.LoadLazyTraced).
func (s *Store) LoadLazyTraced(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	if s.opts.Framework == FrameworkTwoSided {
		return s.loadTwoSided(ids, tc)
	}
	start := clockNow(s.world)
	out, lat, err := s.engine.LoadLazy(ids, tc)
	if err != nil {
		return nil, nil, err
	}
	if s.prof != nil && s.opts.Framework == FrameworkRMA {
		s.prof.Add(trace.RegionRMA, clockNow(s.world)-start)
	}
	return out, lat, nil
}

// LocalSampleBytes returns the encoded bytes of a locally-held sample
// without copying. It is the hook the TCP transport uses to serve this
// rank's chunk to remote processes; callers must not modify the slice.
func (s *Store) LocalSampleBytes(id int64) ([]byte, error) {
	if id < s.myLo || id >= s.myHi {
		return nil, fmt.Errorf("core: sample %d not in local range [%d,%d)", id, s.myLo, s.myHi)
	}
	offset, length := s.span(s.group.Rank(), id)
	return s.buf[offset : offset+length], nil
}
