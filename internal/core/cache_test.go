package core

import (
	"fmt"
	"sync"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/obs"
	"ddstore/internal/trace"
)

// TestOwnerOfBoundaries is the table-driven boundary sweep over the owner
// arithmetic: the first and last id of every chunk, the out-of-range edges,
// and both degenerate (width=1) and full (width=N) striping — including an
// uneven split where early members hold one extra sample.
func TestOwnerOfBoundaries(t *testing.T) {
	cases := []struct {
		name         string
		total, ranks int
		width        int
	}{
		{"width1", 12, 4, 1},
		{"widthN-even", 12, 4, 4},
		{"widthN-uneven", 10, 4, 4}, // chunks 3,3,2,2
		{"width2-of-4", 18, 4, 2},
		{"single-rank", 7, 1, 1},
		{"one-sample-chunks", 4, 4, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ds := datasets.HomoLumo(datasets.Config{NumGraphs: tc.total})
			runWorld(t, tc.ranks, nil, func(c *comm.Comm) error {
				s, err := Open(c, ds, Options{Width: tc.width})
				if err != nil {
					return err
				}
				// The store's own chunk boundaries are the ground truth:
				// starts[g] is the first id of member g's chunk and
				// starts[g+1]-1 the last; both must map to owner g.
				for g := 0; g < tc.width; g++ {
					lo, hi := s.starts[g], s.starts[g+1]
					if lo == hi {
						continue // empty chunk (more members than samples)
					}
					for _, id := range []int64{lo, hi - 1} {
						owner, err := s.OwnerOf(id)
						if err != nil {
							return fmt.Errorf("OwnerOf(%d): %v", id, err)
						}
						if owner != g {
							return fmt.Errorf("OwnerOf(%d) = %d, want %d (chunk [%d,%d))",
								id, owner, g, lo, hi)
						}
					}
					// One past the last id of the chunk belongs to the next
					// member, or is out of range for the last chunk.
					if g < tc.width-1 {
						owner, err := s.OwnerOf(hi)
						if err != nil {
							return fmt.Errorf("OwnerOf(%d): %v", hi, err)
						}
						if owner != g+1 {
							return fmt.Errorf("OwnerOf(%d) = %d, want %d", hi, owner, g+1)
						}
					}
				}
				for _, id := range []int64{-1, int64(tc.total), int64(tc.total) + 100} {
					if _, err := s.OwnerOf(id); err == nil {
						return fmt.Errorf("OwnerOf(%d) accepted an out-of-range id", id)
					}
				}
				return nil
			})
		})
	}
}

// TestCacheRepeatEpochRMA is the cache acceptance proof on the RMA
// framework: a repeat epoch over the same remote ids is served entirely
// from cache — zero additional remote Gets, >= 90% hit rate.
func TestCacheRepeatEpochRMA(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		prof := trace.New()
		s, err := Open(c, ds, Options{CacheBytes: 1 << 20, Profiler: prof})
		if err != nil {
			return err
		}
		// Every rank loads the full dataset: 8 local ids, 24 remote.
		ids := make([]int64, 32)
		for i := range ids {
			ids[i] = int64(i)
		}
		if _, _, err := loadGraphs(s, ids); err != nil {
			return err
		}
		st := s.Stats()
		if st.RemoteGets != 24 {
			return fmt.Errorf("epoch 1: %d remote gets, want 24", st.RemoteGets)
		}
		cs := s.CacheStats()
		if cs.Misses != 24 || cs.Hits != 0 {
			return fmt.Errorf("epoch 1 cache stats: %+v", cs)
		}

		// Epoch 2: identical ids — every remote id is a cache hit.
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g.ID != ids[i] {
				return fmt.Errorf("epoch 2 slot %d: sample %d, want %d", i, g.ID, ids[i])
			}
		}
		if after := s.Stats(); after.RemoteGets != 24 {
			return fmt.Errorf("epoch 2 issued %d extra remote gets, want 0", after.RemoteGets-24)
		}
		// Epoch-2 hit rate: 24 hits out of 24 lookups = 100% >= 90%; the
		// counters also land in the profiler next to the region timings.
		cs = s.CacheStats()
		if cs.Hits != 24 {
			return fmt.Errorf("epoch 2: %d cache hits, want 24", cs.Hits)
		}
		if prof.Counter(cache.CounterHits) != 24 {
			return fmt.Errorf("profiler cache-hits = %d, want 24", prof.Counter(cache.CounterHits))
		}
		return c.Barrier()
	})
}

// TestCacheRepeatEpochTwoSided proves the same on the two-sided framework,
// plus the per-owner batching: one multi-get RPC per remote owner per
// batch, however many samples the batch carries — and a cached repeat
// epoch costs zero RPCs.
func TestCacheRepeatEpochTwoSided(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		prof := trace.New()
		s, err := Open(c, ds, Options{
			Framework: FrameworkTwoSided, CacheBytes: 1 << 20, Profiler: prof,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		ids := make([]int64, 32)
		for i := range ids {
			ids[i] = int64(i)
		}
		// Epoch 1: 24 remote samples spread over 3 remote owners -> 3 RPCs.
		if _, _, err := loadGraphs(s, ids); err != nil {
			return err
		}
		if got := prof.Counter(CounterTwoSidedRPCs); got != 3 {
			return fmt.Errorf("epoch 1: %d RPCs for a 3-remote-owner batch, want 3", got)
		}
		// Epoch 2: all cached -> zero additional RPCs, 24 hits.
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g.ID != ids[i] {
				return fmt.Errorf("epoch 2 slot %d: sample %d, want %d", i, g.ID, ids[i])
			}
		}
		if rpcs := prof.Counter(CounterTwoSidedRPCs); rpcs != 3 {
			return fmt.Errorf("epoch 2 issued %d extra RPCs, want 0", rpcs-3)
		}
		cs := s.CacheStats()
		if cs.Hits != 24 || cs.Misses != 24 {
			return fmt.Errorf("cache stats after 2 epochs: %+v", cs)
		}
		return c.Barrier()
	})
}

// TestTwoSidedCacheEntriesOwnTheirBytes: a two-sided load delivers each
// remote sample as a part of its owner's whole exchange reply, with no
// buffer reference, so the cache keeps a copy in an arena buffer of the
// sample's own size class and is charged that class: an entry pins its
// own bytes, never the reply.
func TestTwoSidedCacheEntriesOwnTheirBytes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	runWorld(t, 2, cluster.Laptop(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided, CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer s.Close()
		other := 1 - s.group.Rank()
		ids := []int64{s.starts[other], s.starts[other] + 1, s.starts[other+1] - 1}
		if _, _, err := loadGraphs(s, ids); err != nil {
			return err
		}
		var charged int64
		for _, id := range ids {
			val, ref, f := s.cache.ClaimRef(id)
			if f != nil {
				f.Fail(fmt.Errorf("not cached"))
				return fmt.Errorf("sample %d is not cached after its load", id)
			}
			b, ok := ref.(*bufarena.Buf)
			if !ok || b.Cap() != bufarena.SizeFor(len(val)) {
				return fmt.Errorf("sample %d: the %d-byte entry holds %T, want an arena buffer of capacity %d", id, len(val), ref, bufarena.SizeFor(len(val)))
			}
			charged += int64(b.Cap())
			ref.Release()
		}
		if cs := s.CacheStats(); cs.Bytes != charged {
			return fmt.Errorf("cache charged %d bytes for entries of capacity %d", cs.Bytes, charged)
		}
		return c.Barrier()
	})
}

// TestTwoSidedBatchSingleRPCPerOwner pins the round-trip arithmetic the
// acceptance criteria name: B remote samples living on ONE owner cost one
// RPC (the two-sided plane has no in-flight size cap), not B.
func TestTwoSidedBatchSingleRPCPerOwner(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	runWorld(t, 2, cluster.Laptop(), func(c *comm.Comm) error {
		prof := trace.New()
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided, Profiler: prof})
		if err != nil {
			return err
		}
		defer s.Close()
		// All 16 ids of the OTHER rank's chunk: B=16 remote samples, 1 owner.
		other := 1 - s.group.Rank()
		lo, hi := s.starts[other], s.starts[other+1]
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g.ID != ids[i] {
				return fmt.Errorf("slot %d: sample %d, want %d", i, g.ID, ids[i])
			}
		}
		if rpcs := prof.Counter(CounterTwoSidedRPCs); rpcs != 1 {
			return fmt.Errorf("%d RPCs for %d samples from one owner, want 1", rpcs, len(ids))
		}
		if st := s.Stats(); st.RemoteGets != int64(len(ids)) {
			return fmt.Errorf("remote gets = %d, want %d", st.RemoteGets, len(ids))
		}
		return c.Barrier()
	})
}

// TestCacheEvictionPoliciesLoad sanity-checks that the eviction policy,
// LRU, yields correct loads under a budget too small for the working set.
func TestCacheEvictionPoliciesLoad(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 24})
	t.Run("lru", func(t *testing.T) {
		runWorld(t, 2, cluster.Laptop(), func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{CacheBytes: 2048})
			if err != nil {
				return err
			}
			ids := make([]int64, 24)
			for i := range ids {
				ids[i] = int64(i)
			}
			for epoch := 0; epoch < 3; epoch++ {
				got, _, err := loadGraphs(s, ids)
				if err != nil {
					return err
				}
				for i, g := range got {
					if g.ID != ids[i] {
						return fmt.Errorf("epoch %d slot %d: sample %d, want %d",
							epoch, i, g.ID, ids[i])
					}
				}
			}
			cs := s.CacheStats()
			if cs.Bytes > 2048 {
				return fmt.Errorf("cache exceeded budget: %d bytes", cs.Bytes)
			}
			return nil
		})
	})
}

// TestEventsHaveOneWriter: a store opened with both a profiler and a
// registry counts its cache events once. ddstore-train and the bench suite
// fold every rank's profiler into their registry when the run is over; when
// Open also teed each Inc live into the registry, the fold counted every
// event a second time (-metrics-json read 514 hits where the profiler had
// 257). After a cached multi-rank run the registry equals the merged
// profiler, and a store with a registry and no profiler still counts live.
func TestEventsHaveOneWriter(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	ids := make([]int64, 32)
	for i := range ids {
		ids[i] = int64(i)
	}
	twoEpochs := func(opts func() Options) {
		runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
			s, err := Open(c, ds, opts())
			if err != nil {
				return err
			}
			for epoch := 0; epoch < 2; epoch++ {
				if _, _, err := loadGraphs(s, ids); err != nil {
					return err
				}
			}
			return c.Barrier()
		})
	}
	event := func(reg *obs.Registry, name string) int64 {
		return reg.Counter(obs.MetricEvents, "event", name).Value()
	}

	reg, merged := obs.NewRegistry(), trace.New()
	var mu sync.Mutex
	var profs []*trace.Profiler
	twoEpochs(func() Options {
		prof := trace.New()
		mu.Lock()
		profs = append(profs, prof)
		mu.Unlock()
		return Options{CacheBytes: 1 << 20, Profiler: prof, Metrics: reg}
	})
	for _, p := range profs {
		merged.Merge(p)
	}
	obs.AddProfiler(reg, merged)
	// 4 ranks x 24 remote ids: all misses in epoch 1, all hits in epoch 2.
	if merged.Counter(cache.CounterHits) != 96 || merged.Counter(cache.CounterMisses) != 96 {
		t.Fatalf("profilers: %d hits / %d misses, want 96 / 96",
			merged.Counter(cache.CounterHits), merged.Counter(cache.CounterMisses))
	}
	for _, name := range []string{cache.CounterHits, cache.CounterMisses} {
		if got, want := event(reg, name), merged.Counter(name); got != want {
			t.Errorf("registry %s = %d, merged profilers = %d", name, got, want)
		}
	}

	live := obs.NewRegistry()
	twoEpochs(func() Options { return Options{CacheBytes: 1 << 20, Metrics: live} })
	if hits, misses := event(live, cache.CounterHits), event(live, cache.CounterMisses); hits != 96 || misses != 96 {
		t.Errorf("registry without a profiler: %d hits / %d misses, want 96 / 96", hits, misses)
	}
}
