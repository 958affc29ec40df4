// Package cache implements the data plane's hot-sample cache: a
// byte-budgeted, sharded cache over fetched remote sample bytes with
// singleflight-style request coalescing, so that (a) a repeat visit to a
// sample costs a memory read instead of a network round trip, and (b)
// concurrent misses for the same id trigger exactly one upstream fetch.
//
// DDStore's workload (paper §3) is globally-shuffled training: every epoch
// issues huge numbers of tiny remote reads, and the same bytes are re-read
// epoch after epoch. The cache converts that re-read traffic into local
// memory reads; the coalescing flight table keeps prefetching workers and
// the training loop from duplicating in-flight fetches.
//
// Eviction is least-recently-used. Hit/miss/coalesce/evict event counts
// flow into any Counters sink — *trace.Profiler satisfies it, so a
// run's cache behaviour lands next to its region timings.
//
// An id's shard and its home in that shard's table both come from the high
// bits of one Fibonacci hash, never its low bits, so strided ids spread
// like sequential ones (see spread). A shard keeps its entries in one slab
// linked by index, so the collector sees one object per shard, not one per
// entry.
//
// Values are treated as immutable: callers must not modify a returned
// slice (the same contract transport.ChunkSource has for served bytes).
package cache

import "sync"

// Ref is a reference held on the buffer backing a cached value. It is
// declared structurally (rather than importing the arena) so the cache
// stays dependency-free; *bufarena.Buf satisfies it. A nil Ref means the
// value is ordinary garbage-collected bytes with no lifecycle to manage.
//
// Ownership rules: PutRef and DeliverRef take ownership of one reference
// and the cache releases it when the entry is evicted or replaced.
// ClaimRef hits and WaitRef hand the caller its own reference (retained
// under the shard lock), which the caller must Release when done with the
// bytes.
type Ref interface {
	Retain()
	Release()
}

// charge is what an entry costs the budget: the capacity its reference
// reports, which is the memory the entry pins, or else its value's length.
func charge(val []byte, ref Ref) int64 {
	if c, ok := ref.(interface{ Cap() int }); ok {
		return int64(c.Cap())
	}
	return int64(len(val))
}

// Counters receives cache event counts. *trace.Profiler implements it, so
// one profiler carries region timings, network resilience counters, and
// cache behaviour for the same run.
type Counters interface {
	Inc(name string, delta int64)
}

// Counter names recorded by the cache.
const (
	CounterHits      = "cache-hits"      // lookups served from cached bytes
	CounterMisses    = "cache-misses"    // lookups that became fetch leaders
	CounterCoalesced = "cache-coalesced" // lookups that joined an in-flight fetch
	CounterEvictions = "cache-evictions" // entries evicted to hold the byte budget
)

type nopCounters struct{}

func (nopCounters) Inc(string, int64) {}

// Options configures a Cache.
type Options struct {
	// MaxBytes is the total byte budget over cached entries, so it bounds
	// the memory they pin: an entry whose reference reports its buffer's
	// capacity (Cap() int, as *bufarena.Buf does) is charged that capacity,
	// any other its value's length. Metadata overhead is not charged. Zero
	// or negative means nothing is retained, but request coalescing still
	// works.
	MaxBytes int64
	// Shards is the number of independently locked shards (default 8).
	Shards int
	// Counters, if set, receives hit/miss/coalesce/evict event counts.
	Counters Counters
}

// Stats is a point-in-time aggregate over all shards.
type Stats struct {
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookups.
// Coalesced lookups count as neither: they were misses someone else paid for.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded, byte-budgeted sample cache with request coalescing.
// All methods are safe for concurrent use.
type Cache struct {
	shards   []*shard
	counters Counters
}

// New returns a cache with the given options.
func New(opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = 8
	}
	cnt := opts.Counters
	if cnt == nil {
		cnt = nopCounters{}
	}
	c := &Cache{counters: cnt}
	budget := opts.MaxBytes
	if budget < 0 {
		budget = 0
	}
	per := budget / int64(n)
	rem := budget % int64(n)
	for i := 0; i < n; i++ {
		max := per
		if int64(i) < rem {
			max++
		}
		c.shards = append(c.shards, &shard{
			max:      max,
			n:        uint64(n),
			slab:     make([]entry, 1),
			table:    make([]int32, 1<<minTableBits),
			shift:    32 - minTableBits,
			flights:  map[int64]*Flight{},
			counters: cnt,
		})
	}
	return c
}

// spread places id among n shards. Multiplying by 2⁶⁴/φ (Fibonacci
// hashing) carries the id's entropy into the product's high bits; its low
// k bits are only the id's low k bits permuted, the same in every id of a
// stride of 2ᵏ, so nothing here reads them. The top 32 bits, scaled by n,
// give the shard as their integer part and the id's key within that shard
// as the fraction left over: bits the shard choice did not consume, so the
// ids of one shard spread over its whole table.
func spread(id int64, n uint64) (shard uint64, key uint32) {
	x := (uint64(id) * 0x9E3779B97F4A7C15 >> 32) * n
	return x >> 32, uint32(x)
}

func (c *Cache) shardFor(id int64) *shard {
	i, _ := spread(id, uint64(len(c.shards)))
	return c.shards[i]
}

// PutRef inserts (or refreshes) id, evicting entries as needed to hold the
// byte budget. The cache takes ownership of one reference on the buffer
// backing val (nil for plain GC-owned bytes) and releases it when the entry
// is evicted or replaced — including immediately, if the value is
// larger than the shard budget and never cached at all.
func (c *Cache) PutRef(id int64, val []byte, ref Ref) {
	s := c.shardFor(id)
	s.mu.Lock()
	s.put(id, val, ref)
	s.mu.Unlock()
}

// Flight is a claim on a cache miss. Exactly one claimant per id is the
// leader (Leader() == true) and must complete the flight with DeliverRef or
// Fail; every other concurrent claimant is a follower and either receives
// the leader's result from WaitRef or gives its claim back with Abandon.
//
// The leader's Flight is also the fetch's shared state, so a miss costs one
// allocation; a follower's Flight is a handle pointing at it.
type Flight struct {
	s    *shard
	id   int64
	lead *Flight // the leader's Flight; nil on the leader's own

	// Shared state, on the leader's Flight only, read and written under the
	// shard lock until the flight has left the shard's table. That is also
	// what makes DeliverRef's snapshot exact — a claimant either incremented
	// followers before the flight left the table (and gets a retained
	// reference) or finds the freshly cached entry and retains through
	// ClaimRef. done is made by the first follower: a flight nobody joins
	// never needs a channel.
	done      chan struct{}
	followers int
	val       []byte
	ref       Ref
	err       error
}

// ClaimRef looks up id. On a hit it returns the bytes, the caller's own
// reference on the entry's backing buffer (retained under the shard lock,
// nil for ref-free entries) which the caller must Release when done with
// the bytes, and a nil flight. On a miss it returns a *Flight: the caller
// checks Leader() to learn whether it must perform the fetch (and then
// DeliverRef/Fail) or wait for someone else's (WaitRef). This is the
// batch-friendly form of GetOrFetch — a loader can claim a whole batch,
// fetch all its leader misses in one round trip, deliver them, and only
// then wait on the followers. The flight's result carries references the
// same way a hit does: the leader transfers ownership with DeliverRef, and
// each follower receives its own reference from WaitRef.
func (c *Cache) ClaimRef(id int64) ([]byte, Ref, *Flight) {
	s := c.shardFor(id)
	s.mu.Lock()
	if i := s.get(id); i != 0 {
		s.hits++
		val, ref := s.slab[i].val, s.slab[i].ref
		if ref != nil {
			ref.Retain()
		}
		s.mu.Unlock()
		c.counters.Inc(CounterHits, 1)
		return val, ref, nil
	}
	if lead, ok := s.flights[id]; ok {
		lead.followers++
		if lead.done == nil {
			lead.done = make(chan struct{})
		}
		s.coalesced++
		s.mu.Unlock()
		c.counters.Inc(CounterCoalesced, 1)
		return nil, nil, &Flight{s: s, id: id, lead: lead}
	}
	f := &Flight{s: s, id: id}
	s.flights[id] = f
	s.misses++
	s.mu.Unlock()
	c.counters.Inc(CounterMisses, 1)
	return nil, nil, f
}

// Leader reports whether this claimant must perform the fetch.
func (f *Flight) Leader() bool { return f.lead == nil }

// DeliverRef completes a leader's flight: the value is cached and every
// follower waiting on the same id is woken with it. The cache takes
// ownership of the caller's reference (nil for plain GC-owned bytes) for
// the cached entry, and — under the same shard lock that removes the flight
// from the coalescing table — retains one additional reference per
// follower, so every WaitRef returns bytes with an independent lifetime.
func (f *Flight) DeliverRef(val []byte, ref Ref) {
	f.s.mu.Lock()
	if ref != nil {
		for i := 0; i < f.followers; i++ {
			ref.Retain()
		}
	}
	f.val, f.ref = val, ref
	f.s.put(f.id, val, ref)
	f.land()
}

// Fail completes a leader's flight with an error: nothing is cached, and
// every follower is woken with the error (the next claimant will lead a
// fresh flight).
func (f *Flight) Fail(err error) {
	f.s.mu.Lock()
	f.err = err
	f.land()
}

// land takes a completed flight out of the shard's table, unlocks the
// shard and wakes the followers, if any ever joined. Caller holds mu.
func (f *Flight) land() {
	if f.s.flights[f.id] == f {
		delete(f.s.flights, f.id)
	}
	done := f.done
	f.s.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// WaitRef blocks until the flight's leader calls DeliverRef or Fail and
// returns the result. Each follower receives one reference of its own
// (retained by the leader's DeliverRef) and must Release it when done with
// the bytes. The reference is nil for ref-free deliveries and on error.
func (f *Flight) WaitRef() ([]byte, Ref, error) {
	<-f.lead.done
	return f.lead.val, f.lead.ref, f.lead.err
}

// Abandon gives back a follower's claim without waiting, for a load that
// failed before it reached WaitRef. While the flight is still in the air
// the leader simply stops counting this follower; once it has landed, the
// reference DeliverRef retained for this follower is released here.
func (f *Flight) Abandon() {
	f.s.mu.Lock()
	inAir := f.s.flights[f.id] == f.lead
	if inAir {
		f.lead.followers--
	}
	ref := f.lead.ref
	f.s.mu.Unlock()
	if !inAir && ref != nil {
		ref.Release()
	}
}

// GetOrFetch returns the cached bytes for id, fetching (and caching) them
// with fetch on a miss. Concurrent calls for the same id are coalesced
// into a single fetch; a fetch error is propagated to every coalesced
// caller and nothing is cached. It serves plain GC-owned bytes: the cache
// must hold no ref-backed entries, because the bytes are returned without
// a reference on them.
func (c *Cache) GetOrFetch(id int64, fetch func() ([]byte, error)) ([]byte, error) {
	val, _, f := c.ClaimRef(id)
	if f == nil {
		return val, nil
	}
	if !f.Leader() {
		val, _, err := f.WaitRef()
		return val, err
	}
	val, err := fetch()
	if err != nil {
		f.Fail(err)
		return nil, err
	}
	f.DeliverRef(val, nil)
	return val, nil
}

// Stats aggregates event counts and occupancy over all shards.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Coalesced += s.coalesced
		st.Evictions += s.evictions
		st.Entries += s.live
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// minTableBits sizes a new shard's table: 8 positions, room for 4 entries.
const minTableBits = 3

// shard is one independently locked slice of the cache. Its entries live in
// one slab and refer to each other by slot index, so an insert allocates
// nothing once the slab has grown to the shard's working set, and the
// collector sees the slab and the table, not one object per entry.
//
// slab[0] is the sentinel of a circular doubly linked list that orders the
// live entries head (slab[0].next: the most recently used) to tail
// (slab[0].prev: the eviction candidate); an empty list links slot 0 to
// itself. Freed slots are zeroed and chained through next from free.
//
// table is an open-addressed index from id to slot: linear probing from
// the id's home position, at most half full, doubled when an insert would
// pass that, and cleared by backward-shift deletion, so a probe ends at the
// first empty position and no tombstone ever lengthens it. Slot 0 is never
// an entry, so a zero position is empty.
type shard struct {
	mu       sync.Mutex
	max      int64
	n        uint64 // the cache's shard count, which spread needs for the key
	slab     []entry
	table    []int32
	shift    uint8 // 32 - log2(len(table)): a home is the key's top bits
	free     int32 // first free slot, 0 when none
	live     int
	bytes    int64
	flights  map[int64]*Flight
	counters Counters

	hits, misses, coalesced, evictions int64
}

type entry struct {
	id         int64
	val        []byte
	ref        Ref   // cache-owned reference on val's backing buffer, or nil
	prev, next int32 // slab slots; prev is toward the head
}

func (s *shard) home(id int64) int {
	_, key := spread(id, s.n)
	return int(key >> s.shift)
}

// find returns the table position holding id and its slot, or the empty
// position that ends id's probe and slot 0. Caller holds mu.
func (s *shard) find(id int64) (pos int, slot int32) {
	mask := len(s.table) - 1
	for pos = s.home(id); ; pos = (pos + 1) & mask {
		if slot = s.table[pos]; slot == 0 || s.slab[slot].id == id {
			return pos, slot
		}
	}
}

// remove empties table position pos, shifting back every later member of
// its probe run whose home does not lie between the hole and itself.
// Caller holds mu.
func (s *shard) remove(pos int) {
	mask := len(s.table) - 1
	for next := (pos + 1) & mask; s.table[next] != 0; next = (next + 1) & mask {
		if (next-s.home(s.slab[s.table[next]].id))&mask >= (next-pos)&mask {
			s.table[pos] = s.table[next]
			pos = next
		}
	}
	s.table[pos] = 0
}

// grow doubles the table and reinserts every live slot. Caller holds mu.
func (s *shard) grow() {
	old := s.table
	s.table = make([]int32, 2*len(old))
	s.shift--
	for _, slot := range old {
		if slot != 0 {
			pos, _ := s.find(s.slab[slot].id)
			s.table[pos] = slot
		}
	}
}

func (s *shard) pushFront(i int32) {
	head := s.slab[0].next
	s.slab[i].prev, s.slab[i].next = 0, head
	s.slab[head].prev = i
	s.slab[0].next = i
}

func (s *shard) unlink(i int32) {
	prev, next := s.slab[i].prev, s.slab[i].next
	s.slab[prev].next = next
	s.slab[next].prev = prev
}

func (s *shard) moveToFront(i int32) {
	if s.slab[0].next != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// get looks up id and moves it to the head of the list, returning its
// slot, or 0 on a miss. Caller holds mu.
func (s *shard) get(id int64) int32 {
	_, i := s.find(id)
	if i != 0 {
		s.moveToFront(i)
	}
	return i
}

// put inserts or refreshes id and evicts down to the budget, taking
// ownership of one reference on val's backing buffer (released when the
// entry leaves the cache, or immediately if the value is never cached).
// Caller holds mu.
func (s *shard) put(id int64, val []byte, ref Ref) {
	size := charge(val, ref)
	if size > s.max {
		// The value can never fit; caching it would just flush the shard.
		if ref != nil {
			ref.Release()
		}
		return
	}
	pos, i := s.find(id)
	if i != 0 {
		e := &s.slab[i]
		s.bytes += size - charge(e.val, e.ref)
		if e.ref != nil {
			e.ref.Release()
		}
		e.val, e.ref = val, ref
		s.moveToFront(i)
	} else {
		if 2*(s.live+1) > len(s.table) {
			s.grow()
			pos, _ = s.find(id)
		}
		if i = s.free; i != 0 {
			s.free = s.slab[i].next
		} else {
			// The append may move the slab: nothing holds a pointer into it.
			s.slab = append(s.slab, entry{})
			i = int32(len(s.slab) - 1)
		}
		s.slab[i] = entry{id: id, val: val, ref: ref}
		s.table[pos] = i
		s.pushFront(i)
		s.live++
		s.bytes += size
	}
	s.evict()
}

// evict removes entries until the shard is within budget, releasing each
// victim's buffer reference and zeroing its slot onto the free list.
// Caller holds mu.
func (s *shard) evict() {
	for s.bytes > s.max && s.slab[0].prev != 0 {
		victim := s.slab[0].prev
		s.unlink(victim)
		pos, _ := s.find(s.slab[victim].id)
		s.remove(pos)
		ref := s.slab[victim].ref
		s.bytes -= charge(s.slab[victim].val, ref)
		s.slab[victim] = entry{next: s.free}
		s.free = victim
		s.live--
		if ref != nil {
			ref.Release()
		}
		s.evictions++
		s.counters.Inc(CounterEvictions, 1)
	}
}
