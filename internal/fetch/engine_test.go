package fetch

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// loadGraphs is an untraced LoadLazy with every view materialized in
// request order.
func loadGraphs(e *Engine, ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := e.LoadLazy(ids, tracectx.Context{})
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

// testGraph builds a tiny valid graph for sample id.
func testGraph(id int64) *graph.Graph {
	return &graph.Graph{
		ID: id, NumNodes: 2, NodeFeatDim: 1, NodeFeat: []float32{1, 2},
		EdgeSrc: []int32{0}, EdgeDst: []int32{1}, EdgeFeatDim: 1,
		EdgeFeat: []float32{3}, Y: []float32{float32(id)},
	}
}

// countRef counts Retain/Release calls so tests can observe how the
// engine manages buffer references on delivered samples. The conceptual
// initial reference (the one Deliver takes ownership of) is not
// counted: a balanced lifecycle ends with releases == retains + 1.
type countRef struct {
	retains  atomic.Int32
	releases atomic.Int32
}

func (r *countRef) Retain()  { r.retains.Add(1) }
func (r *countRef) Release() { r.releases.Add(1) }

// mockPlane serves ids [0, n) striped over owners (owner = id % owners),
// delivering every id in Collect, and records how often each id was
// delivered.
type mockPlane struct {
	n      int64
	owners int
	local  int // owner token whose samples are "local"; -1 for none

	delay    time.Duration                   // per Collect
	failWhen func(owner int, id int64) error // non-nil error aborts the call

	mu      sync.Mutex
	fetched map[int64]int         // id -> times delivered by a fetch
	refs    map[int64][]*countRef // id -> one ref per delivery
}

func newMockPlane(n int64, owners int) *mockPlane {
	return &mockPlane{
		n: n, owners: owners, local: -1,
		fetched: map[int64]int{},
		refs:    map[int64][]*countRef{},
	}
}

func (p *mockPlane) OwnerOf(id int64) (int, error) {
	if id < 0 || id >= p.n {
		return 0, fmt.Errorf("mock: no owner for sample %d", id)
	}
	return int(id) % p.owners, nil
}

func (p *mockPlane) Local(owner int) bool { return owner == p.local }

func (p *mockPlane) Issue(*Pending) {}

func (p *mockPlane) Collect(pd *Pending, deliver Deliver) error {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	for _, id := range pd.IDs {
		if p.failWhen != nil {
			if err := p.failWhen(pd.Owner, id); err != nil {
				return err
			}
		}
		raw := testGraph(id).Encode()
		ref := &countRef{}
		if err := deliver(id, raw, ref, time.Duration(id)*time.Microsecond); err != nil {
			return err
		}
		p.mu.Lock()
		p.fetched[id]++
		p.refs[id] = append(p.refs[id], ref)
		p.mu.Unlock()
	}
	return nil
}

func (p *mockPlane) fetchCount(id int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetched[id]
}

// latencyCount is the number of observations in reg's fetch-latency
// histogram, as a scrape of the registry reads it.
func latencyCount(reg *obs.Registry) uint64 {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == obs.MetricFetchLatency {
			return h.Count
		}
	}
	return 0
}

func newCache(budget int64) *cache.Cache {
	return cache.New(cache.Options{MaxBytes: budget, Shards: 1})
}

func TestLoadDedupAndAssembly(t *testing.T) {
	p := newMockPlane(20, 3)
	e := New(Config{Plane: p})
	ids := []int64{7, 3, 7, 11, 3, 7, 0}
	out, lats, err := e.LoadLazy(ids, tracectx.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ids) || len(lats) != len(ids) {
		t.Fatalf("got %d views, %d latencies for %d ids", len(out), len(lats), len(ids))
	}
	for i, id := range ids {
		if g := out[i].Graph(); g.ID != id {
			t.Fatalf("position %d: want sample %d, got %+v", i, id, g)
		}
	}
	for _, id := range []int64{7, 3, 11, 0} {
		if n := p.fetchCount(id); n != 1 {
			t.Errorf("sample %d fetched %d times, want 1", id, n)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	e := New(Config{Plane: newMockPlane(4, 2)})
	out, lats, err := loadGraphs(e, nil)
	if err != nil || len(out) != 0 || len(lats) != 0 {
		t.Fatalf("empty batch: out=%v lats=%v err=%v", out, lats, err)
	}
}

func TestOutOfRangeIDFailsBeforeAnyClaim(t *testing.T) {
	p := newMockPlane(10, 2)
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	// The invalid id comes last, after ids that would otherwise claim
	// flights; validation must reject the batch before any claim happens.
	if _, _, err := loadGraphs(e, []int64{1, 2, 99}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if p.fetchCount(1) != 0 {
		t.Error("fetch ran despite validation failure")
	}
	// No flight may be stranded: a fresh claim on id 1 must lead.
	_, _, f := c.ClaimRef(1)
	if f == nil || !f.Leader() {
		t.Fatal("claim after failed validation did not lead — a flight leaked")
	}
	f.Fail(errors.New("cleanup"))
}

func TestCacheHitsSkipTheWire(t *testing.T) {
	p := newMockPlane(10, 2)
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	if _, _, err := loadGraphs(e, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadGraphs(e, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{1, 2, 3} {
		if n := p.fetchCount(id); n != 1 {
			t.Errorf("sample %d fetched %d times, want 1 (second load must hit)", id, n)
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Errorf("cache stats %+v, want 3 hits / 3 misses", st)
	}
}

func TestNilCacheSkipsClaimMachinery(t *testing.T) {
	p := newMockPlane(10, 2)
	e := New(Config{Plane: p})
	if _, _, err := loadGraphs(e, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadGraphs(e, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range []int64{1, 2} {
		if p.fetched[id] != 2 {
			t.Errorf("sample %d fetched %d times, want 2 (no cache)", id, p.fetched[id])
		}
		for _, ref := range p.refs[id] {
			// Without a cache the engine takes no extra references; Load's
			// materialization releases the Lazy's own one.
			if n := ref.retains.Load(); n != 0 {
				t.Errorf("sample %d: %d extra retains without a cache", id, n)
			}
			if n := ref.releases.Load(); n != 1 {
				t.Errorf("sample %d: %d releases, want exactly the Lazy's own", id, n)
			}
		}
	}
}

func TestLocalOwnersBypassCache(t *testing.T) {
	p := newMockPlane(10, 2)
	p.local = 0 // even ids are local
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	for i := 0; i < 2; i++ {
		if _, _, err := loadGraphs(e, []int64{2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.fetchCount(2); n != 2 {
		t.Errorf("local sample fetched %d times, want 2 (never cached)", n)
	}
	if n := p.fetchCount(3); n != 1 {
		t.Errorf("remote sample fetched %d times, want 1 (cached)", n)
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	p := newMockPlane(10, 2)
	p.delay = 20 * time.Millisecond
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, err := loadGraphs(e, []int64{5})
			if err != nil {
				t.Error(err)
				return
			}
			if out[0].ID != 5 {
				t.Errorf("got sample %d", out[0].ID)
			}
		}()
	}
	wg.Wait()
	if n := p.fetchCount(5); n != 1 {
		t.Errorf("sample 5 fetched %d times across 8 concurrent loads, want 1", n)
	}
	if st := c.Stats(); st.Coalesced != 7 {
		t.Errorf("coalesced %d, want 7", st.Coalesced)
	}
}

// TestLeaderFailureReleasesFollowers is the regression for the flight-leak
// bug class: a failed leader in one Load must release the followers parked
// in another Load promptly, and the failed flight must be gone so a retry
// can lead a fresh fetch.
func TestLeaderFailureReleasesFollowers(t *testing.T) {
	p := newMockPlane(10, 2)
	var failing atomic.Bool
	failing.Store(true)
	entered := make(chan struct{}, 1)
	p.failWhen = func(owner int, id int64) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		if failing.Load() {
			// Hold the flight open long enough for the follower to park.
			time.Sleep(30 * time.Millisecond)
			return errors.New("injected owner death")
		}
		return nil
	}
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := loadGraphs(e, []int64{5})
		leaderErr <- err
	}()
	<-entered // leader owns the flight and is inside Collect

	followerErr := make(chan error, 1)
	go func() {
		_, _, err := loadGraphs(e, []int64{5})
		followerErr <- err
	}()

	deadline := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-leaderErr:
			if err == nil || !strings.Contains(err.Error(), "injected owner death") {
				t.Fatalf("leader error = %v", err)
			}
		case err := <-followerErr:
			if err == nil || !strings.Contains(err.Error(), "coalesced") {
				t.Fatalf("follower error = %v", err)
			}
		case <-deadline:
			t.Fatal("a coalesced waiter was never released after the leader failed")
		}
	}

	// The failed flight must not linger: a retry leads a fresh fetch.
	failing.Store(false)
	out, _, err := loadGraphs(e, []int64{5})
	if err != nil {
		t.Fatalf("retry after leader failure: %v", err)
	}
	if out[0].ID != 5 {
		t.Fatalf("retry returned sample %d", out[0].ID)
	}
}

func TestPartialDeliveryFailsFlights(t *testing.T) {
	p := newMockPlane(10, 2)
	// Owner 1 dies; owner 0 delivers fine. The flights owner 1 led must be
	// failed, not stranded.
	p.failWhen = func(owner int, id int64) error {
		if owner == 1 {
			return errors.New("owner 1 down")
		}
		return nil
	}
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	if _, _, err := loadGraphs(e, []int64{2, 3}); err == nil {
		t.Fatal("load with a dead owner succeeded")
	}
	// Both ids must be claimable again as leaders (delivered id 2's flight
	// completed; failed id 3's flight was failed, not leaked).
	for _, id := range []int64{2, 3} {
		val, _, f := c.ClaimRef(id)
		if f == nil {
			if id != 2 {
				t.Fatalf("sample %d resolved from cache after a failed load", id)
			}
			if _, err := graph.Decode(val); err != nil {
				t.Fatalf("cached bytes for %d corrupt: %v", id, err)
			}
			continue
		}
		if !f.Leader() {
			t.Fatalf("sample %d claim did not lead — flight leaked", id)
		}
		f.Fail(errors.New("cleanup"))
	}
}

func TestUndeliveredSampleIsAnError(t *testing.T) {
	p := newMockPlane(10, 1)
	silent := silentPlane{p}
	e := New(Config{Plane: silent, ErrPrefix: "mock"})
	_, _, err := loadGraphs(e, []int64{4})
	if err == nil || !strings.Contains(err.Error(), "was not delivered") {
		t.Fatalf("err = %v, want 'was not delivered'", err)
	}
}

// silentPlane claims success without delivering anything.
type silentPlane struct{ *mockPlane }

func (p silentPlane) Collect(*Pending, Deliver) error { return nil }

func TestLowestOwnerErrorWins(t *testing.T) {
	p := newMockPlane(16, 4)
	p.failWhen = func(owner int, id int64) error {
		if owner >= 2 {
			return fmt.Errorf("owner %d down", owner)
		}
		return nil
	}
	e := New(Config{Plane: p})
	_, _, err := loadGraphs(e, []int64{0, 1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "owner 2 down") {
		t.Fatalf("err = %v, want the lowest failing owner's error", err)
	}
}

func TestNewPanicsWithoutPlane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a nil Plane")
		}
	}()
	New(Config{})
}

// TestCacheEntryRetainsDeliveredBuffer pins the reference flow of a
// leader delivery: the cache entry gets its own retained reference, the
// Lazy's own reference is released by Load's materialization, and the
// cache's reference is only released when the entry leaves (replaced).
func TestCacheEntryRetainsDeliveredBuffer(t *testing.T) {
	p := newMockPlane(10, 2)
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	if _, _, err := loadGraphs(e, []int64{1}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	ref := p.refs[1][0]
	p.mu.Unlock()
	if n := ref.retains.Load(); n != 1 {
		t.Errorf("retains = %d, want 1 (the cache entry's)", n)
	}
	if n := ref.releases.Load(); n != 1 {
		t.Errorf("releases = %d, want 1 (the Lazy's own, on materialization)", n)
	}
	c.PutRef(1, []byte{0}, nil)
	if n := ref.releases.Load(); n != 2 {
		t.Errorf("releases after the entry is replaced = %d, want 2 (cache entry released)", n)
	}
}

// TestFollowerReceivesOwnReference pins the coalesced path: the leader's
// delivery retains one reference per parked follower, and every
// follower's Lazy releases it on materialization, leaving only the cache
// entry's reference outstanding.
func TestFollowerReceivesOwnReference(t *testing.T) {
	p := newMockPlane(10, 2)
	p.delay = 20 * time.Millisecond
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c})
	const loads = 6
	var wg sync.WaitGroup
	for w := 0; w < loads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := loadGraphs(e, []int64{5}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	p.mu.Lock()
	ref := p.refs[5][0]
	p.mu.Unlock()
	// Retains: one for the cache entry, one per coalesced follower, one
	// per late load that hit the fresh entry. Releases: the Lazy's own +
	// one per follower/hit materialization. The cache entry's reference is
	// still live, so retains and releases differ by exactly... nothing —
	// the Lazy's uncounted initial reference balances the live entry.
	wantRetains := 1 + st.Coalesced + st.Hits
	if n := int64(ref.retains.Load()); n != wantRetains {
		t.Errorf("retains = %d, want %d (cache + %d followers + %d hits)",
			n, wantRetains, st.Coalesced, st.Hits)
	}
	if n := int64(ref.releases.Load()); n != 1+st.Coalesced+st.Hits {
		t.Errorf("releases = %d, want %d", n, 1+st.Coalesced+st.Hits)
	}
}

// TestConcurrentHammer drives many overlapping loads through one cached
// engine; run with -race to check the pipeline's synchronization.
func TestConcurrentHammer(t *testing.T) {
	p := newMockPlane(64, 4)
	c := newCache(1 << 10) // tiny budget forces constant eviction churn
	e := New(Config{Plane: p, Cache: c})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ids := []int64{
					(seed + int64(i)) % 64,
					(seed + int64(i)*7) % 64,
					(seed + int64(i)) % 64, // duplicate on purpose
				}
				out, lats, err := loadGraphs(e, ids)
				if err != nil {
					t.Error(err)
					return
				}
				if len(lats) != len(ids) {
					t.Errorf("%d latencies for %d ids", len(lats), len(ids))
				}
				for j, id := range ids {
					if out[j].ID != id {
						t.Errorf("position %d: want %d, got %d", j, id, out[j].ID)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestEngineMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewSpanRing(64, 5)
	p := newMockPlane(8, 2)
	c := newCache(1 << 20)
	e := New(Config{Plane: p, Cache: c, Metrics: reg, Spans: ring})

	ids := []int64{0, 1, 2, 3}
	if _, _, err := loadGraphs(e, ids); err != nil {
		t.Fatal(err)
	}
	// Second load of the same ids: all cache hits.
	if _, _, err := loadGraphs(e, ids); err != nil {
		t.Fatal(err)
	}

	// Every unique id of both loads landed in the canonical histogram.
	if got := latencyCount(reg); got != 8 {
		t.Fatalf("histogram count = %d, want 8", got)
	}

	var fetchSpans, hitSpans int
	var fetchedSamples int
	for _, s := range ring.Spans() {
		switch s.Name {
		case "fetch-owner":
			fetchSpans++
			fetchedSamples += s.Samples
			if s.Owner < 0 || s.Bytes <= 0 {
				t.Fatalf("fetch-owner span missing owner/bytes: %+v", s)
			}
			if s.Rank != 5 {
				t.Fatalf("span rank = %d, want ring rank 5", s.Rank)
			}
		case "cache-hits":
			hitSpans++
			if !s.CacheHit || s.Samples != 4 || s.Bytes <= 0 {
				t.Fatalf("cache-hits span: %+v", s)
			}
		}
	}
	// First load: two owners fetched; second load: one aggregate hit span.
	if fetchSpans != 2 || fetchedSamples != 4 {
		t.Fatalf("fetch-owner spans = %d covering %d samples, want 2/4", fetchSpans, fetchedSamples)
	}
	if hitSpans != 1 {
		t.Fatalf("cache-hits spans = %d, want 1", hitSpans)
	}
}

// ctxPlane records the trace context each Collect was handed.
type ctxPlane struct {
	*mockPlane
	mu  sync.Mutex
	tcs []tracectx.Context
}

func (p *ctxPlane) Collect(pd *Pending, deliver Deliver) error {
	p.mu.Lock()
	p.tcs = append(p.tcs, pd.Trace)
	p.mu.Unlock()
	return p.mockPlane.Collect(pd, deliver)
}

// TestTraceContextReachesEveryOwner pins the one-path contract: a traced
// load hands every owner fan-out its own child of the caller's context
// (same trace, distinct span ids, matching the engine's fetch-owner
// spans), and an untraced load — the zero context — hands every owner the
// zero context through the very same call.
func TestTraceContextReachesEveryOwner(t *testing.T) {
	p := &ctxPlane{mockPlane: newMockPlane(12, 3)}
	ring := obs.NewSpanRing(64, 5)
	e := New(Config{Plane: p, Spans: ring})
	root := tracectx.New(true)
	lzs, _, err := e.LoadLazy([]int64{0, 1, 2, 3}, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, lz := range lzs {
		lz.Release()
	}
	if len(p.tcs) != 3 {
		t.Fatalf("Collect calls = %d, want 3", len(p.tcs))
	}
	spanIDs := map[uint64]bool{}
	for _, s := range ring.Spans() {
		if s.Name == "fetch-owner" {
			if s.TraceID != root.TraceID || s.ParentID != root.SpanID {
				t.Errorf("fetch-owner span %+v not parented on the root context", s)
			}
			spanIDs[s.SpanID] = true
		}
	}
	for _, tc := range p.tcs {
		if tc.TraceID != root.TraceID || !tc.Sampled || tc.SpanID == root.SpanID || !spanIDs[tc.SpanID] {
			t.Errorf("owner context %+v is not a recorded child of %+v", tc, root)
		}
	}
	if len(spanIDs) != 3 {
		t.Errorf("distinct child span ids = %d, want 3", len(spanIDs))
	}

	p.tcs = nil
	if _, _, err := loadGraphs(e, []int64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range p.tcs {
		if tc != (tracectx.Context{}) {
			t.Errorf("untraced load handed an owner the context %+v", tc)
		}
	}
}

// arenaPlane delivers every sample in a pooled arena buffer, one owner per
// id, and runs hook (when set) before an owner's Collect.
type arenaPlane struct {
	hook func(owner int) error
}

func (p arenaPlane) OwnerOf(id int64) (int, error) { return int(id), nil }
func (p arenaPlane) Local(int) bool                { return false }

func (p arenaPlane) Issue(*Pending) {}

func (p arenaPlane) Collect(pd *Pending, deliver Deliver) error {
	if p.hook != nil {
		if err := p.hook(pd.Owner); err != nil {
			return err
		}
	}
	for _, id := range pd.IDs {
		raw := testGraph(id).Encode()
		buf := bufarena.Get(len(raw))
		copy(buf.Bytes(), raw)
		if err := deliver(id, buf.Bytes(), buf, 0); err != nil {
			return err
		}
	}
	return nil
}

// TestFailedLoadStrandsNothing is the regression for the stranded
// references of an errored load: a load holding a cache hit, a flight it
// leads and a claim on a flight another engine's load leads fails, and
// every arena buffer either load touched is recycled, no flight stays in
// the table and no goroutine is left — whether the followed flight lands
// after the failure (the leader must stop counting the follower) or before
// it (the reference retained for the follower must be released).
func TestFailedLoadStrandsNothing(t *testing.T) {
	const hitID, followedID, ledID = 1, 2, 3
	for _, landsFirst := range []bool{false, true} {
		goroutines := runtime.NumGoroutine()
		gets0, _, recycles0 := bufarena.Stats()
		c := newCache(1 << 20)

		// The other engine leads followedID and parks inside its transfer.
		parked, open := make(chan struct{}), make(chan struct{})
		other := New(Config{Plane: arenaPlane{hook: func(int) error {
			close(parked)
			<-open
			return nil
		}}, Cache: c})
		otherDone := make(chan error, 1)
		go func() {
			lzs, _, err := other.LoadLazy([]int64{followedID}, tracectx.Context{})
			for _, lz := range lzs {
				lz.Release()
			}
			otherDone <- err
		}()
		<-parked

		// This engine hits hitID, follows followedID, leads ledID — and ledID's
		// owner dies, before or after the followed flight has landed.
		e := New(Config{Cache: c, Plane: arenaPlane{hook: func(owner int) error {
			if owner != ledID {
				return nil
			}
			if landsFirst {
				close(open)
				if err := <-otherDone; err != nil {
					t.Error(err)
				}
			}
			return errors.New("owner died")
		}}})
		if lzs, _, err := e.LoadLazy([]int64{hitID}, tracectx.Context{}); err != nil {
			t.Fatal(err)
		} else {
			lzs[0].Release()
		}
		if _, _, err := e.LoadLazy([]int64{hitID, followedID, ledID}, tracectx.Context{}); err == nil || !strings.Contains(err.Error(), "owner died") {
			t.Fatalf("landsFirst=%t: err = %v, want the dead owner's", landsFirst, err)
		}
		if !landsFirst {
			close(open)
			if err := <-otherDone; err != nil {
				t.Fatal(err)
			}
		}

		// No flight is left: every id is a hit or leads afresh.
		for id, cached := range map[int64]bool{hitID: true, followedID: true, ledID: false} {
			_, ref, f := c.ClaimRef(id)
			switch {
			case cached && f == nil:
				ref.Release()
			case !cached && f != nil && f.Leader():
				f.Fail(errors.New("cleanup"))
			default:
				t.Errorf("landsFirst=%t: sample %d: hit %t, want %t", landsFirst, id, f == nil, cached)
			}
		}
		for _, id := range []int64{hitID, followedID, ledID} {
			c.PutRef(id, []byte{0}, nil) // the cache lets go of its buffers
		}
		if gets, _, recycles := bufarena.Stats(); gets-gets0 != recycles-recycles0 {
			t.Errorf("landsFirst=%t: %d arena buffers handed out, %d recycled", landsFirst, gets-gets0, recycles-recycles0)
		}
		for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("landsFirst=%t: %d goroutines left, started with %d", landsFirst, n, goroutines)
		}
	}
}

// shapePlane logs every Issue and Collect, with the goroutine count at the
// call, over a mockPlane. Its defer owner's first Collect delivers nothing
// (a TCP owner whose connection was busy at Issue), and its fail owner's
// every Collect errors.
type shapePlane struct {
	*mockPlane
	deferOwner, failOwner int
	calls                 []string
	goroutines            []int
}

func (p *shapePlane) Issue(pd *Pending) {
	p.calls = append(p.calls, fmt.Sprintf("issue %d %v", pd.Owner, pd.IDs))
	p.goroutines = append(p.goroutines, runtime.NumGoroutine())
}

func (p *shapePlane) Collect(pd *Pending, deliver Deliver) error {
	p.calls = append(p.calls, fmt.Sprintf("collect %d %v again=%t", pd.Owner, pd.IDs, pd.Again))
	p.goroutines = append(p.goroutines, runtime.NumGoroutine())
	switch {
	case pd.Owner == p.failOwner:
		return fmt.Errorf("owner %d down", pd.Owner)
	case pd.Owner == p.deferOwner && !pd.Again:
		return nil
	}
	return p.mockPlane.Collect(pd, deliver)
}

// TestSplitPhaseShape pins the engine's one fan-out: every owner is issued
// before the first Collect, every issued pending is collected once in owner
// order, a pending left undelivered gets exactly one second Collect with
// just its missing ids, and the load starts no goroutine.
func TestSplitPhaseShape(t *testing.T) {
	p := &shapePlane{mockPlane: newMockPlane(16, 4), deferOwner: 1, failOwner: -1}
	e := New(Config{Plane: p})
	before := runtime.NumGoroutine()
	out, _, err := loadGraphs(e, []int64{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range out {
		if g.ID != int64(i) {
			t.Fatalf("position %d holds sample %d", i, g.ID)
		}
	}
	want := []string{
		"issue 0 [0 4]", "issue 1 [1 5]", "issue 2 [2 6]", "issue 3 [3 7]",
		"collect 0 [0 4] again=false", "collect 1 [1 5] again=false",
		"collect 2 [2 6] again=false", "collect 3 [3 7] again=false",
		"collect 1 [1 5] again=true",
	}
	if !slices.Equal(p.calls, want) {
		t.Fatalf("calls\n%q\nwant\n%q", p.calls, want)
	}
	for i, n := range p.goroutines {
		if n > before {
			t.Fatalf("call %q ran with %d goroutines, the load started with %d", p.calls[i], n, before)
		}
	}
}

// TestEveryIssuedPendingIsCollected: an owner that fails does not stop the
// first round — every issued pending is still collected once, since an
// unread reply would desynchronise its connection — and the second round
// runs only below the failed owner, whose error the load returns.
func TestEveryIssuedPendingIsCollected(t *testing.T) {
	p := &shapePlane{mockPlane: newMockPlane(16, 4), deferOwner: 0, failOwner: 1}
	e := New(Config{Plane: p, Cache: newCache(1 << 20)})
	_, _, err := loadGraphs(e, []int64{0, 1, 2, 3})
	if err == nil || err.Error() != "owner 1 down" {
		t.Fatalf("err = %v, want owner 1's", err)
	}
	want := []string{
		"issue 0 [0]", "issue 1 [1]", "issue 2 [2]", "issue 3 [3]",
		"collect 0 [0] again=false", "collect 1 [1] again=false",
		"collect 2 [2] again=false", "collect 3 [3] again=false",
		"collect 0 [0] again=true",
	}
	if !slices.Equal(p.calls, want) {
		t.Fatalf("calls\n%q\nwant\n%q", p.calls, want)
	}
	// Owner 0 (on its second Collect) and owners 2 and 3 delivered before
	// the load failed, so their samples are cached; the failed owner's
	// flight was failed, not stranded.
	for id, cached := range map[int64]bool{0: true, 1: false, 2: true, 3: true} {
		_, ref, f := e.cache.ClaimRef(id)
		switch {
		case cached && f == nil:
			ref.Release()
		case !cached && f != nil && f.Leader():
			f.Fail(errors.New("cleanup"))
		default:
			t.Errorf("sample %d: hit %t, want %t", id, f == nil, cached)
		}
	}
}
