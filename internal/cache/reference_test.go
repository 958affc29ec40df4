package cache

// The shard as it was until the slab replaced it — a Go map of heap entries
// on a pointer-linked recency list — kept verbatim as the oracle the slab
// shard must match op for op (the pattern of internal/fetch's
// reference_test.go). The flight protocol, which did not change, is
// restated over it in refCache so whole claim/deliver/fail/abandon streams
// can be compared: the same hits, misses and coalesced claims, the same
// victims in the same order, the same reference balance on every buffer.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type refShard struct {
	max        int64
	entries    map[int64]*refEntry
	head, tail *refEntry
	bytes      int64
	evictions  int64
}

type refEntry struct {
	id         int64
	val        []byte
	ref        Ref       // cache-owned reference on val's backing buffer, or nil
	prev, next *refEntry // prev is toward the head
}

func (s *refShard) pushFront(e *refEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *refShard) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *refShard) moveToFront(e *refEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *refShard) get(id int64) (*refEntry, bool) {
	e, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	s.moveToFront(e)
	return e, true
}

func (s *refShard) put(id int64, val []byte, ref Ref) {
	if int64(len(val)) > s.max {
		if ref != nil {
			ref.Release()
		}
		return
	}
	if e, ok := s.entries[id]; ok {
		s.bytes += int64(len(val)) - int64(len(e.val))
		if e.ref != nil {
			e.ref.Release()
		}
		e.val = val
		e.ref = ref
		s.moveToFront(e)
	} else {
		e := &refEntry{id: id, val: val, ref: ref}
		s.entries[id] = e
		s.pushFront(e)
		s.bytes += int64(len(val))
	}
	s.evict()
}

func (s *refShard) evict() {
	for s.bytes > s.max && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.id)
		s.bytes -= int64(len(victim.val))
		if victim.ref != nil {
			victim.ref.Release()
		}
		s.evictions++
	}
}

// refCache restates Cache's flight protocol over refShards, one per shard
// of the Cache it shadows, with the same budgets and the same shard choice.
type refCache struct {
	c       *Cache
	shards  []*refShard
	flights map[int64]*refFlight

	hits, misses, coalesced int64
}

type refFlight struct {
	id        int64
	followers int
	landed    bool
	val       []byte
	ref       Ref
}

func newRefCache(c *Cache) *refCache {
	m := &refCache{c: c, flights: map[int64]*refFlight{}}
	for _, s := range c.shards {
		m.shards = append(m.shards, &refShard{max: s.max, entries: map[int64]*refEntry{}})
	}
	return m
}

func (m *refCache) shardOf(id int64) *refShard {
	return m.shards[slices.Index(m.c.shards, m.c.shardFor(id))]
}

func (m *refCache) claim(id int64) (val []byte, ref Ref, f *refFlight, lead bool) {
	if e, ok := m.shardOf(id).get(id); ok {
		m.hits++
		if e.ref != nil {
			e.ref.Retain()
		}
		return e.val, e.ref, nil, false
	}
	if f := m.flights[id]; f != nil {
		f.followers++
		m.coalesced++
		return nil, nil, f, false
	}
	f = &refFlight{id: id}
	m.flights[id] = f
	m.misses++
	return nil, nil, f, true
}

func (m *refCache) deliver(f *refFlight, val []byte, ref Ref) {
	for i := 0; i < f.followers; i++ {
		ref.Retain()
	}
	f.val, f.ref = val, ref
	m.shardOf(f.id).put(f.id, val, ref)
	m.land(f)
}

func (m *refCache) land(f *refFlight) {
	delete(m.flights, f.id)
	f.landed = true
}

func (m *refCache) abandon(f *refFlight) {
	if !f.landed {
		f.followers--
	} else if f.ref != nil {
		f.ref.Release()
	}
}

func (m *refCache) stats() Stats {
	st := Stats{Hits: m.hits, Misses: m.misses, Coalesced: m.coalesced}
	for _, s := range m.shards {
		st.Evictions += s.evictions
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
	}
	return st
}

// tref is a counting reference that logs each release under its tag. Every
// value goes in twice, one tref per side under one tag, so two sides that
// release the same buffers in the same order — victims included — write the
// same log.
type tref struct {
	tag  int
	live int
	log  *[]int
}

func (r *tref) Retain() { r.live++ }
func (r *tref) Release() {
	r.live--
	*r.log = append(*r.log, r.tag)
}

// claimPair is one claim made on both sides and not yet resolved.
type claimPair struct {
	got  *Flight
	want *refFlight
	lead bool
}

// shardHarness drives a Cache and its refCache through the same op stream
// and fails the moment they disagree or a shard's table breaks.
type shardHarness struct {
	tb     testing.TB
	c      *Cache
	m      *refCache
	stride int64

	gotLog, wantLog []int
	twins           [][2]*tref // by tag: the slab side's and the reference's
	claims          []claimPair
}

func newShardHarness(tb testing.TB, shards int, stride int64) *shardHarness {
	c := New(Options{MaxBytes: int64(shards) * 2000, Shards: shards})
	return &shardHarness{tb: tb, c: c, m: newRefCache(c), stride: stride}
}

// streamProbeBound is the longest probe a check after any op may see; the
// seeded streams reach 8.
const streamProbeBound = 12

// value makes a fresh value of the given size and a reference on it for
// each side.
func (h *shardHarness) value(size int) ([]byte, *tref, *tref) {
	tag := len(h.twins)
	got := &tref{tag: tag, live: 1, log: &h.gotLog}
	want := &tref{tag: tag, live: 1, log: &h.wantLog}
	h.twins = append(h.twins, [2]*tref{got, want})
	return make([]byte, size), got, want
}

func (h *shardHarness) put(id int64, size int) {
	v, got, want := h.value(size)
	h.c.PutRef(id, v, got)
	h.m.shardOf(id).put(id, v, want)
}

// liveID picks one of the reference's cached ids, or reports there is none.
func (h *shardHarness) liveID(arg byte) (int64, bool) {
	var ids []int64
	for _, s := range h.m.shards {
		for e := s.head; e != nil; e = e.next {
			ids = append(ids, e.id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	return ids[int(arg)%len(ids)], true
}

func (h *shardHarness) claim(id int64) {
	gv, gr, gf := h.c.ClaimRef(id)
	wv, wr, wf, lead := h.m.claim(id)
	switch {
	case gf == nil && wf == nil:
		if &gv[0] != &wv[0] {
			h.tb.Fatalf("claim %d: the two sides hit different values", id)
		}
		gr.Release()
		wr.Release()
	case gf != nil && wf != nil && gf.Leader() == lead:
		h.claims = append(h.claims, claimPair{gf, wf, lead})
	default:
		h.tb.Fatalf("claim %d: slab hit=%v, reference hit=%v, leaders %v vs %v",
			id, gf == nil, wf == nil, gf != nil && gf.Leader(), lead)
	}
}

// pick removes and returns the arg-th open claim that leads (or follows).
func (h *shardHarness) pick(arg byte, lead bool) (claimPair, bool) {
	var idx []int
	for i, cp := range h.claims {
		if cp.lead == lead {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return claimPair{}, false
	}
	i := idx[int(arg)%len(idx)]
	cp := h.claims[i]
	h.claims = slices.Delete(h.claims, i, i+1)
	return cp, true
}

func (h *shardHarness) follow(cp claimPair, wait bool) {
	if !cp.want.landed || !wait {
		cp.got.Abandon()
		h.m.abandon(cp.want)
		return
	}
	select {
	case <-cp.got.lead.done:
	default:
		h.tb.Fatalf("follower of %d: the reference's flight landed, the slab side's did not", cp.want.id)
	}
	gv, gr, gerr := cp.got.WaitRef()
	if (gerr == nil) != (cp.want.ref != nil) || (gerr == nil && &gv[0] != &cp.want.val[0]) {
		h.tb.Fatalf("follower of %d: waited %v, reference delivered %v", cp.want.id, gerr, cp.want.ref != nil)
	}
	if gr != nil {
		gr.Release()
		cp.want.ref.Release()
	}
}

var errHarness = errors.New("harness failure")

// step runs one op on both sides and checks them against each other.
func (h *shardHarness) step(op, arg byte) {
	id := int64(arg%48) * h.stride
	size := 1 + int(arg)*int(op/16)%250 // the op's high nibble scales it
	switch op % 16 {
	case 0, 1, 2, 3, 14, 15: // put a fresh id, or refresh a live one
		h.put(id, size)
	case 4: // replace a live id
		if live, ok := h.liveID(arg); ok {
			h.put(live, size)
		}
	case 5: // oversize: released at once, nothing evicted
		h.put(id, int(h.c.shardFor(id).max)+size)
	case 6, 7: // claim any id: a hit or a miss, a leader or a follower
		h.claim(id)
	case 8: // claim a live id: a hit
		if live, ok := h.liveID(arg); ok {
			h.claim(live)
		}
	case 9, 10:
		if cp, ok := h.pick(arg, true); ok {
			v, got, want := h.value(size)
			cp.got.DeliverRef(v, got)
			h.m.deliver(cp.want, v, want)
		}
	case 11:
		if cp, ok := h.pick(arg, true); ok {
			cp.got.Fail(errHarness)
			h.m.land(cp.want)
		}
	case 12, 13: // a follower waits, if its flight landed, or abandons
		if cp, ok := h.pick(arg, false); ok {
			h.follow(cp, op%2 == 0)
		}
	}
	h.check(fmt.Sprintf("op %d arg %d", op%16, arg))
}

// check compares the two sides after an op and the slab shards' tables.
func (h *shardHarness) check(what string) {
	h.tb.Helper()
	if !slices.Equal(h.gotLog, h.wantLog) {
		h.tb.Fatalf("%s: released %v, reference released %v", what, h.gotLog, h.wantLog)
	}
	h.gotLog, h.wantLog = h.gotLog[:0], h.wantLog[:0]
	if got, want := h.c.Stats(), h.m.stats(); got != want {
		h.tb.Fatalf("%s: stats %+v, reference %+v", what, got, want)
	}
	for tag, tw := range h.twins {
		if tw[0].live != tw[1].live {
			h.tb.Fatalf("%s: buffer %d holds %d references, reference %d", what, tag, tw[0].live, tw[1].live)
		}
	}
	for _, s := range h.c.shards {
		if p := checkShard(h.tb, s); p > streamProbeBound {
			h.tb.Fatalf("%s: a probe runs %d positions past its home (bound %d)", what, p, streamProbeBound)
		}
	}
}

// finish resolves every open claim, replaces every cached value on both
// sides with one that holds no reference, and requires every reference
// either side was handed to have been given back.
func (h *shardHarness) finish() {
	for len(h.claims) > 0 {
		cp := h.claims[0]
		h.claims = h.claims[1:]
		if cp.lead {
			cp.got.Fail(errHarness)
			h.m.land(cp.want)
		} else {
			h.follow(cp, true)
		}
	}
	ids := []int64{}
	for _, s := range h.m.shards {
		for e := s.head; e != nil; e = e.next {
			ids = append(ids, e.id)
		}
	}
	for _, id := range ids {
		v := make([]byte, 1)
		h.c.PutRef(id, v, nil)
		h.m.shardOf(id).put(id, v, nil)
	}
	h.check("drain")
	for tag, tw := range h.twins {
		if tw[0].live != 0 {
			h.tb.Fatalf("buffer %d: %d references outlive the cache", tag, tw[0].live)
		}
	}
}

// checkShard asserts the slab shard's invariants and returns its longest
// probe: every live id is found at its own slot, no slot is reachable twice,
// the table is at most half full and holds exactly the live slots, the
// free list is disjoint from the live list, every slot is on one of them,
// and a free slot pins nothing.
func checkShard(tb testing.TB, s *shard) (longest int) {
	tb.Helper()
	seen := map[int32]bool{}
	mask := len(s.table) - 1
	n := 0
	for i := s.slab[0].next; i != 0; i = s.slab[i].next {
		if seen[i] {
			tb.Fatalf("slot %d is reachable twice from the head", i)
		}
		seen[i] = true
		n++
		if s.slab[s.slab[i].next].prev != i {
			tb.Fatalf("slot %d: next's prev is %d", i, s.slab[s.slab[i].next].prev)
		}
		id := s.slab[i].id
		pos, slot := s.find(id)
		if slot != i {
			tb.Fatalf("id %d lives in slot %d, the table finds slot %d", id, i, slot)
		}
		longest = max(longest, (pos-s.home(id))&mask)
	}
	if n != s.live {
		tb.Fatalf("%d slots on the live list, shard counts %d", n, s.live)
	}
	indexed := 0
	for _, slot := range s.table {
		if slot != 0 {
			indexed++
			if !seen[slot] {
				tb.Fatalf("the table holds slot %d, which is not live", slot)
			}
		}
	}
	if indexed != n || 2*n > len(s.table) {
		tb.Fatalf("table of %d holds %d slots for %d live ones", len(s.table), indexed, n)
	}
	for i := s.free; i != 0; i = s.slab[i].next {
		if seen[i] {
			tb.Fatalf("free slot %d is live or on the free list twice", i)
		}
		seen[i] = true
		if e := s.slab[i]; e.val != nil || e.ref != nil || e.id != 0 {
			tb.Fatalf("free slot %d is not zeroed: %+v", i, e)
		}
	}
	if len(seen) != len(s.slab)-1 {
		tb.Fatalf("%d of %d slots are neither live nor free", len(s.slab)-1-len(seen), len(s.slab)-1)
	}
	return longest
}

func TestShardMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, stride := range []int64{1, 8, 1000} {
			t.Run(fmt.Sprintf("lru/shards%d/stride%d", shards, stride), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					h := newShardHarness(t, shards, stride)
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 1500; i++ {
						h.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
					}
					h.finish()
				}
			})
		}
	}

	// The longest probe over big tables filled with sequential and strided
	// ids, the patterns a batch loader produces: at most 8 here, where the
	// low-bit home of a first draft ran 33 at stride 64 over 8 shards.
	for _, shards := range []int{1, 8} {
		for _, stride := range []int64{1, 2, 8, 64, 1000, 4096} {
			c := New(Options{MaxBytes: 1 << 30, Shards: shards})
			for k := int64(0); k < 4096*int64(shards); k++ {
				c.PutRef(k*stride, val(k, 1), nil)
			}
			for _, s := range c.shards {
				if p := checkShard(t, s); p > 8 {
					t.Errorf("%d shards, stride %d: a probe runs %d positions past its home", shards, stride, p)
				}
			}
		}
	}
}

// FuzzShardOps drives the slab shard and the reference through the same
// op stream decoded from fuzz bytes: a header byte for shard count and
// stride, then an (op, arg) pair per step.
func FuzzShardOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 6, 1, 9, 0, 6, 1, 12, 0})
	f.Add([]byte{1, 0, 5, 0, 5, 6, 5, 6, 5, 10, 0, 13, 0, 15, 0})
	f.Add([]byte{2, 8, 3, 8, 3, 0, 9, 0, 10, 5, 200, 4, 1, 14, 7})
	f.Add([]byte{5, 16, 16, 16, 32, 16, 48, 16, 64, 6, 16, 11, 0, 12, 0, 13, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hdr := data[0]
		h := newShardHarness(t, 1+int(hdr/3%4), []int64{1, 8, 1000}[int(hdr/12)%3])
		for i := 1; i+1 < len(data); i += 2 {
			h.step(data[i], data[i+1])
		}
		h.finish()
	})
}
