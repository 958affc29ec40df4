package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lookup probes id the way every reader does — ClaimRef — and reports
// whether it hit, dropping the hit's buffer reference. A miss opens a leader
// flight; the probe abandons it with Fail so the id stays claimable.
func lookup(c *Cache, id int64) ([]byte, bool) {
	v, ref, f := c.ClaimRef(id)
	if f != nil {
		if f.Leader() {
			f.Fail(errors.New("lookup probe"))
		}
		return nil, false
	}
	if ref != nil {
		ref.Release()
	}
	return v, true
}

// val returns a distinguishable payload of the given size for id.
func val(id int64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(id) + byte(i)
	}
	return b
}

func TestLookupPutAndStats(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 4})
	if _, ok := lookup(c, 7); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutRef(7, val(7, 100), nil)
	got, ok := lookup(c, 7)
	if !ok || len(got) != 100 || got[0] != val(7, 100)[0] {
		t.Fatalf("lookup(7) = %v, %v after PutRef", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry, 100 bytes", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
}

// TestByteBudgetBound proves occupancy never exceeds the budget under a
// stream of inserts. The subtest is named for the eviction policy, LRU.
func TestByteBudgetBound(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const budget = 4096
		c := New(Options{MaxBytes: budget, Shards: 4})
		for id := int64(0); id < 500; id++ {
			c.PutRef(id, val(id, 64), nil)
			if b := c.Stats().Bytes; b > budget {
				t.Fatalf("after Put(%d): %d bytes cached, budget %d", id, b, budget)
			}
		}
		if c.Stats().Evictions == 0 {
			t.Fatal("expected evictions under a 500x64B stream into a 4KiB budget")
		}
	})
}

// TestOversizeEntrySkipped proves a value that cannot fit a shard budget is
// not cached and does not flush existing entries.
func TestOversizeEntrySkipped(t *testing.T) {
	c := New(Options{MaxBytes: 1000, Shards: 1})
	c.PutRef(1, val(1, 100), nil)
	c.PutRef(2, val(2, 5000), nil) // larger than the whole budget
	if _, ok := lookup(c, 2); ok {
		t.Fatal("oversize entry was cached")
	}
	if _, ok := lookup(c, 1); !ok {
		t.Fatal("oversize Put flushed an existing entry")
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("oversize Put caused evictions")
	}
}

// TestZeroBudget proves a zero-byte cache retains nothing but still
// coalesces concurrent fetches.
func TestZeroBudget(t *testing.T) {
	c := New(Options{MaxBytes: 0, Shards: 2})
	c.PutRef(1, val(1, 10), nil)
	if _, ok := lookup(c, 1); ok {
		t.Fatal("zero-budget cache retained an entry")
	}
	var fetches atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := c.GetOrFetch(42, func() ([]byte, error) {
				fetches.Add(1)
				return val(42, 10), nil
			})
			if err != nil || len(got) != 10 {
				t.Errorf("GetOrFetch: %v, %v", got, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	// All 8 run concurrently against one flight: at most a couple of
	// fetches (goroutines that claim after the flight completed re-fetch,
	// since nothing is retained), but coalescing must have collapsed most.
	if n := fetches.Load(); n > 8 || n < 1 {
		t.Fatalf("fetches = %d", n)
	}
}

// TestEvictionOrderLRU: touching an entry saves it; the coldest goes first.
func TestEvictionOrderLRU(t *testing.T) {
	c := New(Options{MaxBytes: 300, Shards: 1})
	c.PutRef(1, val(1, 100), nil)
	c.PutRef(2, val(2, 100), nil)
	c.PutRef(3, val(3, 100), nil)
	lookup(c, 1)                  // 1 is now most recent; 2 is coldest
	c.PutRef(4, val(4, 100), nil) // evicts 2
	if _, ok := lookup(c, 2); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	for _, id := range []int64{1, 3, 4} {
		if _, ok := lookup(c, id); !ok {
			t.Fatalf("LRU evicted %d, which was more recent than 2", id)
		}
	}
}

// TestCoalescing proves N concurrent misses for one id result in exactly
// one fetch, with the other N-1 counted as coalesced.
func TestCoalescing(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 4})
	const workers = 16
	var fetches atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.GetOrFetch(99, func() ([]byte, error) {
				fetches.Add(1)
				<-gate // hold the flight open until all workers have claimed
				return val(99, 50), nil
			})
			if err != nil || len(got) != 50 {
				t.Errorf("GetOrFetch: %v, %v", got, err)
			}
		}()
	}
	// Wait until every worker is either the leader (inside fetch) or a
	// follower (blocked in Wait): misses + coalesced == workers.
	for {
		st := c.Stats()
		if st.Misses+st.Coalesced == workers {
			break
		}
	}
	close(gate)
	wg.Wait()
	if n := fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != workers-1 {
		t.Fatalf("stats = %+v; want 1 miss, %d coalesced", st, workers-1)
	}
	if _, ok := lookup(c, 99); !ok {
		t.Fatal("delivered value was not cached")
	}
}

// TestFlightFailure proves a fetch error reaches every coalesced waiter,
// nothing is cached, and the id can be fetched again afterwards.
func TestFlightFailure(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 1})
	boom := errors.New("boom")
	const workers = 8
	gate := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetOrFetch(5, func() ([]byte, error) {
				<-gate
				return nil, boom
			})
			errs <- err
		}()
	}
	for {
		st := c.Stats()
		if st.Misses+st.Coalesced == workers {
			break
		}
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want boom", err)
		}
	}
	if _, ok := lookup(c, 5); ok {
		t.Fatal("failed fetch left a cached value")
	}
	// A later claim leads a fresh flight and can succeed.
	got, err := c.GetOrFetch(5, func() ([]byte, error) { return val(5, 10), nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("retry after failure: %v, %v", got, err)
	}
}

// TestClaimBatchStyle exercises the leader/follower API the way the batch
// loaders use it: claim every id in the batch, fetch all leader misses,
// deliver them, and only then wait on the followers. A duplicated id in
// one batch must yield one leader and one follower — never a self-deadlock.
func TestClaimBatchStyle(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 4})
	c.PutRef(1, val(1, 10), nil)
	ids := []int64{1, 2, 2, 3} // 1 is a hit; the duplicate 2 coalesces
	out := make([][]byte, len(ids))
	leaders := map[int]*Flight{}
	followers := map[int]*Flight{}
	for i, id := range ids {
		v, _, f := c.ClaimRef(id)
		switch {
		case f == nil:
			out[i] = v
		case f.Leader():
			leaders[i] = f
		default:
			followers[i] = f
		}
	}
	if len(leaders) != 2 || len(followers) != 1 {
		t.Fatalf("leaders = %d, followers = %d; want 2 and 1", len(leaders), len(followers))
	}
	for i, f := range leaders {
		out[i] = val(ids[i], 20)
		f.DeliverRef(out[i], nil)
	}
	for i, f := range followers {
		v, _, err := f.WaitRef()
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		out[i] = v
	}
	for i := range ids {
		if len(out[i]) == 0 {
			t.Fatalf("slot %d unfilled", i)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 1 coalesced", st)
	}
}

// TestConcurrentMixedUse hammers the cache from many goroutines to flush
// out races (run with -race).
func TestConcurrentMixedUse(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 14, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := int64((w*17 + i) % 64)
				got, err := c.GetOrFetch(id, func() ([]byte, error) {
					if id%13 == 12 {
						return nil, fmt.Errorf("synthetic failure for %d", id)
					}
					return val(id, 32+int(id)), nil
				})
				if err == nil && len(got) != 32+int(id) {
					t.Errorf("id %d: got %d bytes", id, len(got))
				}
			}
		}(w)
	}
	wg.Wait()
	if b := c.Stats().Bytes; b > 1<<14 {
		t.Fatalf("budget exceeded: %d", b)
	}
}

// recordingCounters captures Inc calls for counter-plumbing assertions.
type recordingCounters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (r *recordingCounters) Inc(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string]int64{}
	}
	r.m[name] += delta
}

func TestCountersSink(t *testing.T) {
	rc := &recordingCounters{}
	c := New(Options{MaxBytes: 150, Shards: 1, Counters: rc})
	c.PutRef(1, val(1, 100), nil)
	lookup(c, 1)                  // hit
	lookup(c, 2)                  // miss
	c.PutRef(2, val(2, 100), nil) // evicts 1
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.m[CounterHits] != 1 || rc.m[CounterMisses] != 1 || rc.m[CounterEvictions] != 1 {
		t.Fatalf("counters = %v", rc.m)
	}
}

// TestStridedIDsSpreadOverShards: 48 values of 100 B into an 8-shard,
// 12 800 B cache (room for 16 a shard) must all stay, whatever the stride
// between their ids — a shard chosen from the hash's low bits put every id
// of one residue class mod 8 in one shard.
func TestStridedIDsSpreadOverShards(t *testing.T) {
	for _, stride := range []int64{1, 2, 8, 64, 1000} {
		c := New(Options{MaxBytes: 12800, Shards: 8})
		for k := int64(0); k < 48; k++ {
			c.PutRef(k*stride, val(k, 100), nil)
		}
		if st := c.Stats(); st.Entries != 48 || st.Evictions != 0 {
			t.Errorf("stride %d: %d entries, %d evictions; want 48 and 0", stride, st.Entries, st.Evictions)
		}
	}
}

// pinRef is a Ref large enough to get an allocation, and so a finalizer,
// of its own.
type pinRef struct{ _ [64]byte }

func (*pinRef) Retain()  {}
func (*pinRef) Release() {}

// TestFreedSlotsPinNothing: a value the cache evicted becomes garbage,
// along with its reference, even though its slab slot stays allocated.
func TestFreedSlotsPinNothing(t *testing.T) {
	var freed atomic.Int64
	c := New(Options{MaxBytes: 4 * 256, Shards: 1})
	for id := int64(0); id < 12; id++ {
		b, r := new([256]byte), new(pinRef)
		runtime.SetFinalizer(b, func(*[256]byte) { freed.Add(1) })
		runtime.SetFinalizer(r, func(*pinRef) { freed.Add(1) })
		c.PutRef(id, b[:], r)
	}
	for _, want := range []int64{16, 24} { // 8 evicted; then 4 more puts evict the last 4
		deadline := time.Now().Add(5 * time.Second)
		for freed.Load() < want && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n := freed.Load(); n != want {
			t.Fatalf("%d values and references collected, want %d", n, want)
		}
		for id := int64(12); id < 16; id++ {
			c.PutRef(id, make([]byte, 256), nil)
		}
	}
	runtime.KeepAlive(c)
}
