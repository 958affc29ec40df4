// Cross-plane conformance suite: the same batch-load scenarios run against
// both real adapters of the shared fetch engine — the in-process RMA store
// (internal/core) and the TCP chunk group (internal/transport) — and must
// behave identically: same graphs, same dedup semantics, same cache
// behaviour, and no stranded coalescing flight on any error path.
package fetch_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/transport"
)

// statsPlane is ddp.DataPlane plus the cache counters both planes report,
// which the suite reads to check dedup and caching.
type statsPlane interface {
	ddp.DataPlane
	CacheStats() cache.Stats
}

// confPlane is one adapter under test. Both planes satisfy ddp.DataPlane —
// that shared surface is itself part of what this suite locks down.
type confPlane struct {
	name  string
	ds    *datasets.Dataset
	plane statsPlane
	// [localLo, localHi) is the id range served from this process's own
	// memory, which bypasses the cache (RMA only; empty for TCP).
	localLo, localHi int64
}

func (p confPlane) localCount() int64 { return p.localHi - p.localLo }

// remoteID returns an id that is not local, so it exercises the cache.
func (p confPlane) remoteID() int64 {
	n := int64(p.plane.Len())
	for id := int64(0); id < n; id++ {
		if id < p.localLo || id >= p.localHi {
			return id
		}
	}
	return 0
}

func confDataset() *datasets.Dataset {
	return datasets.HomoLumo(datasets.Config{NumGraphs: 24})
}

func fastPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond,
		ReadTimeout: 100 * time.Millisecond, DialTimeout: time.Second, Seed: 1,
	}
}

// checkBatch asserts a loaded batch matches the dataset ground truth at
// every position — the cross-plane "identical results" contract.
func checkBatch(t *testing.T, p confPlane, ids []int64, out []*graph.Graph, lats []time.Duration) {
	t.Helper()
	if len(out) != len(ids) {
		t.Fatalf("%s: %d graphs for %d ids", p.name, len(out), len(ids))
	}
	if lats != nil && len(lats) != len(ids) {
		t.Fatalf("%s: %d latencies for %d ids", p.name, len(lats), len(ids))
	}
	for i, id := range ids {
		want, err := p.ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		got := out[i]
		if got == nil || got.ID != id || got.NumNodes != want.NumNodes || got.Y[0] != want.Y[0] {
			t.Fatalf("%s: position %d: want sample %d, got %+v", p.name, i, id, got)
		}
	}
}

// load is one batch through the trainer's loader, lazily, with every view
// materialized: a Graph per position.
func (p confPlane) load(ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := (&ddp.PlaneLoader{Plane: p.plane}).LoadBatchLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

// remoteUnique counts the distinct ids of a batch that go through the cache.
func (p confPlane) remoteUnique(ids []int64) int64 {
	seen := map[int64]bool{}
	var n int64
	for _, id := range ids {
		if !seen[id] && (id < p.localLo || id >= p.localHi) {
			n++
		}
		seen[id] = true
	}
	return n
}

// checkEncoded asserts every position's graph re-encodes to its source
// sample's bytes.
func checkEncoded(t *testing.T, p confPlane, ids []int64, out []*graph.Graph) {
	t.Helper()
	for i, id := range ids {
		want, err := p.ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[i].Encode(), want.Encode()) {
			t.Fatalf("%s: position %d (sample %d) does not re-encode to its source bytes", p.name, i, id)
		}
	}
}

// loadWithin fails the test if the load has not completed within d — the
// symptom of a stranded coalescing flight is a Load that never returns.
func loadWithin(t *testing.T, p confPlane, ids []int64, d time.Duration) ([]*graph.Graph, []time.Duration, error) {
	t.Helper()
	type res struct {
		out  []*graph.Graph
		lats []time.Duration
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		out, lats, err := p.load(ids)
		ch <- res{out, lats, err}
	}()
	select {
	case r := <-ch:
		return r.out, r.lats, r.err
	case <-time.After(d):
		t.Fatalf("%s: load of %v did not complete within %v (stranded flight?)", p.name, ids, d)
		return nil, nil, nil
	}
}

// runConformance drives the shared scenario table against one adapter.
func runConformance(t *testing.T, p confPlane) {
	n := int64(p.plane.Len())

	// Scenario: duplicate ids share one fetch, yet every position gets its
	// own graph: mutating one leaves the others, and the cached bytes,
	// untouched, and a second load of the same ids is all cache hits.
	ids := []int64{5, 1, 5, 3, 1, 5}
	remote := p.remoteUnique(ids)
	before := p.plane.CacheStats()
	out, lats, err := p.load(ids)
	if err != nil {
		t.Fatalf("%s: dup-id load: %v", p.name, err)
	}
	checkBatch(t, p, ids, out, lats)
	checkEncoded(t, p, ids, out)
	if got := p.plane.CacheStats().Misses - before.Misses; got != remote {
		t.Errorf("%s: dup-id load missed %d times, want one per distinct remote id (%d)", p.name, got, remote)
	}
	out[0].NodeFeat[0]++
	out[0].Y[0]++
	checkEncoded(t, p, ids[1:], out[1:])
	before = p.plane.CacheStats()
	out, lats, err = p.load(ids)
	if err != nil {
		t.Fatalf("%s: dup-id reload: %v", p.name, err)
	}
	checkBatch(t, p, ids, out, lats)
	checkEncoded(t, p, ids, out)
	after := p.plane.CacheStats()
	if got := after.Hits - before.Hits; got != remote || after.Misses != before.Misses {
		t.Errorf("%s: dup-id reload: %d hits, %d misses, want %d hits and no miss",
			p.name, got, after.Misses-before.Misses, remote)
	}

	// Scenario: an out-of-range id fails the whole batch, cleanly. The
	// retry proves no flight was stranded by the failure.
	if _, _, err := p.load([]int64{1, n + 100}); err == nil {
		t.Fatalf("%s: out-of-range id accepted", p.name)
	}
	if _, _, err := p.load([]int64{-1}); err == nil {
		t.Fatalf("%s: negative id accepted", p.name)
	}
	out, lats, err = loadWithin(t, p, []int64{1}, 5*time.Second)
	if err != nil {
		t.Fatalf("%s: load after failed batch: %v", p.name, err)
	}
	checkBatch(t, p, []int64{1}, out, lats)

	// Scenario: cache misses become hits. Warm every id, then reload all of
	// them: the second pass must hit for every non-local id and miss for
	// none.
	all := make([]int64, n)
	for i := range all {
		all[i] = int64(i)
	}
	if _, _, err := p.load(all); err != nil {
		t.Fatalf("%s: warm load: %v", p.name, err)
	}
	before = p.plane.CacheStats()
	out, lats, err = p.load(all)
	if err != nil {
		t.Fatalf("%s: cached load: %v", p.name, err)
	}
	checkBatch(t, p, all, out, lats)
	after = p.plane.CacheStats()
	wantHits := n - p.localCount()
	if got := after.Hits - before.Hits; got != wantHits {
		t.Errorf("%s: cached reload hit %d of %d remote ids", p.name, got, wantHits)
	}
	if after.Misses != before.Misses {
		t.Errorf("%s: cached reload missed %d times", p.name, after.Misses-before.Misses)
	}

	// Scenario: a load returns one latency per position, none negative, and
	// every repeat of an id carries the latency of the id's one fetch.
	if _, lats, err = p.load(ids); err != nil {
		t.Fatalf("%s: latency load: %v", p.name, err)
	}
	if len(lats) != len(ids) {
		t.Fatalf("%s: %d latencies for %d positions", p.name, len(lats), len(ids))
	}
	firstLat := map[int64]time.Duration{}
	for i, id := range ids {
		if d, seen := firstLat[id]; !seen {
			firstLat[id] = lats[i]
		} else if d != lats[i] {
			t.Errorf("%s: position %d repeats sample %d with latency %v, its first position had %v", p.name, i, id, lats[i], d)
		}
		if lats[i] < 0 {
			t.Errorf("%s: position %d latency %v", p.name, i, lats[i])
		}
	}

	// Scenario: concurrent loads over overlapping ids (run with -race).
	// Coalescing means correctness, not counters, is the contract here: the
	// cache may or may not still hold an id when a goroutine claims it.
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < 15; i++ {
				batch := []int64{
					(seed + i) % n,
					(seed*3 + i*7) % n,
					(seed + i) % n, // duplicate on purpose
				}
				out, lats, err := p.load(batch)
				if err != nil {
					t.Errorf("%s: hammer: %v", p.name, err)
					return
				}
				checkBatch(t, p, batch, out, lats)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

func TestConformanceRMA(t *testing.T) {
	ds := confDataset()
	w, err := comm.NewWorld(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		st, err := core.Open(c, ds, core.Options{
			CacheBytes: 1 << 20,
		})
		if err != nil {
			return err
		}
		lo, hi := st.LocalRange()
		runConformance(t, confPlane{
			name:    fmt.Sprintf("rma-rank%d", c.Rank()),
			ds:      ds,
			plane:   st,
			localLo: lo,
			localHi: hi,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConformanceTCP(t *testing.T) {
	ds := confDataset()
	var addrs []string
	for i := int64(0); i < 3; i++ {
		srv, err := transport.Serve("127.0.0.1:0", confChunk(t, ds, i*8, (i+1)*8))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	grp, err := transport.NewGroupReplicas([][]string{addrs}, transport.GroupOptions{
		Client:     transport.ClientOptions{Policy: fastPolicy()},
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	runConformance(t, confPlane{name: "tcp", ds: ds, plane: grp})
}

func confChunk(t *testing.T, ds *datasets.Dataset, lo, hi int64) *transport.MemChunk {
	t.Helper()
	gs := make([]*graph.Graph, 0, hi-lo)
	for id := lo; id < hi; id++ {
		g, err := ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return transport.NewMemChunk(lo, gs)
}

// TestConformanceTCPOwnerDeath is the owner-death-mid-batch scenario, which
// only the TCP plane can express (an in-process RMA rank cannot die alone).
// A single-replica group losing a peer must fail batches spanning that
// peer's range promptly — releasing every coalesced waiter — while batches
// on surviving peers keep working.
func TestConformanceTCPOwnerDeath(t *testing.T) {
	ds := confDataset()
	var addrs []string
	var servers []*transport.Server
	for i := int64(0); i < 3; i++ {
		srv, err := transport.Serve("127.0.0.1:0", confChunk(t, ds, i*8, (i+1)*8))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	grp, err := transport.NewGroupReplicas([][]string{addrs}, transport.GroupOptions{
		Client:           transport.ClientOptions{Policy: fastPolicy()},
		CacheBytes:       1 << 20,
		FailoverCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	p := confPlane{name: "tcp-owner-death", ds: ds, plane: grp}

	// Sanity before the kill.
	out, lats, err := p.load([]int64{2, 9, 17})
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, p, []int64{2, 9, 17}, out, lats)

	servers[1].Close() // ids [8,16) lose their only owner

	// A batch spanning the dead owner fails promptly; concurrent loads of
	// the same dead id must all be released (no waiter may hang on the
	// failed leader's flight). Id 10 was never cached, so every goroutine
	// goes through the claim machinery.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := loadWithin(t, p, []int64{2, 10}, 10*time.Second); err == nil {
				t.Error("batch spanning a dead owner succeeded with one replica")
			}
		}()
	}
	wg.Wait()

	// Surviving owners keep serving, and the failed flight did not poison
	// later loads of other ids.
	out, lats, err = loadWithin(t, p, []int64{2, 17, 23}, 5*time.Second)
	if err != nil {
		t.Fatalf("surviving owners broken after peer death: %v", err)
	}
	checkBatch(t, p, []int64{2, 17, 23}, out, lats)
}

// TestConformanceTCPFailover: with a second replica the same owner death is
// invisible — the engine's owner fetch fails over inside the plane and the
// batch still completes.
func TestConformanceTCPFailover(t *testing.T) {
	ds := confDataset()
	var replicas [][]string
	var first []*transport.Server
	for r := 0; r < 2; r++ {
		var addrs []string
		for i := int64(0); i < 3; i++ {
			srv, err := transport.Serve("127.0.0.1:0", confChunk(t, ds, i*8, (i+1)*8))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if r == 0 {
				first = append(first, srv)
			}
			addrs = append(addrs, srv.Addr())
		}
		replicas = append(replicas, addrs)
	}
	grp, err := transport.NewGroupReplicas(replicas, transport.GroupOptions{
		Client:           transport.ClientOptions{Policy: fastPolicy()},
		FailoverCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	p := confPlane{name: "tcp-failover", ds: ds, plane: grp}

	first[1].Close() // replica 0 loses ids [8,16); replica 1 still has them

	all := make([]int64, 24)
	for i := range all {
		all[i] = int64(i)
	}
	out, lats, err := loadWithin(t, p, all, 15*time.Second)
	if err != nil {
		t.Fatalf("load with a live second replica failed: %v", err)
	}
	checkBatch(t, p, all, out, lats)
}
