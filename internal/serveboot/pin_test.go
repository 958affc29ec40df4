package serveboot

import (
	"fmt"
	"math/rand"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/transport"
)

// TestCachePinsNoMoreThanBudget fills each of the three caches past its
// byte budget under Zipf(1.1) re-reads in 16-id loads, releases every view,
// and then holds the arena memory still live, which only cache entries can
// hold, to that budget, and to no more than one sample's size class per
// entry (an entry that pinned its whole batch reply would keep the budget
// by caching a few samples):
//   - group: the TCP client cache, fed by 16-sample batch replies, each
//     reply one arena buffer;
//   - store: the RMA store's cache, fed by one arena buffer per sample;
//   - hot: a lazy owner's cache, fed by exact-size source bytes that are no
//     arena memory at all, behind a group without a cache.
func TestCachePinsNoMoreThanBudget(t *testing.T) {
	const n, budget, loads = 2000, 128 << 10, 300
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	var largest []byte
	for id := range int64(n) {
		raw, err := ds.AppendSample(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > len(largest) {
			largest = raw
		}
	}
	perEntry := int64(bufarena.SizeFor(len(largest)))
	// pins runs the loads through p and returns the arena bytes left live.
	pins := func(p ddp.DataPlane) (int64, error) {
		_, live0 := bufarena.Live()
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, n-1)
		ids := make([]int64, 16)
		for range loads {
			for i := range ids {
				ids[i] = int64(z.Uint64())
			}
			views, _, err := p.LoadLazyTraced(ids, tracectx.Context{})
			if err != nil {
				return 0, err
			}
			for i, v := range views {
				if v.ID() != ids[i] {
					return 0, fmt.Errorf("position %d holds sample %d, want %d", i, v.ID(), ids[i])
				}
				v.Release()
			}
		}
		_, live := bufarena.Live()
		return live - live0, nil
	}
	check := func(t *testing.T, pinned int64, st cache.Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d arena bytes live for a %d-byte budget (%.2f times), %d entries, %d evictions",
			pinned, budget, float64(pinned)/budget, st.Entries, st.Evictions)
		if st.Evictions == 0 {
			t.Fatal("the loads never filled the cache past its budget")
		}
		if pinned > budget {
			t.Fatalf("cache entries pin %d arena bytes, over the %d-byte budget", pinned, budget)
		}
		if pinned > int64(st.Entries)*perEntry {
			t.Fatalf("%d cache entries pin %d arena bytes, more than %d B each", st.Entries, pinned, perEntry)
		}
	}

	t.Run("group", func(t *testing.T) {
		c := bootTestCluster(t, 1, n, nil)
		g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
			CacheBytes: budget, Client: transport.ClientOptions{Policy: fastNet()},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		pinned, err := pins(g)
		check(t, pinned, g.CacheStats(), err)
	})

	t.Run("store", func(t *testing.T) {
		w, err := comm.NewWorld(2, 42)
		if err != nil {
			t.Fatal(err)
		}
		// Rank 1 loads from both chunks, the Zipf head in rank 0's, while
		// rank 0 waits in the barrier, so the arena traffic in between is
		// rank 1's alone.
		var pinned int64
		var st cache.Stats
		err = w.Run(func(c *comm.Comm) error {
			s, err := core.Open(c, ds, core.Options{CacheBytes: budget})
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				if pinned, err = pins(s); err != nil {
					return err
				}
				st = s.CacheStats()
			}
			return c.Barrier()
		})
		check(t, pinned, st, err)
	})

	t.Run("hot", func(t *testing.T) {
		c := bootTestCluster(t, 1, n, func(cfg *Config) { cfg.CacheBytes = budget })
		pinned, err := pins(elasticGroup(t, c))
		st, _ := c.CacheStats()
		check(t, pinned, st, err)
		if st.Bytes > budget {
			t.Fatalf("hot cache charged %d bytes, over its %d-byte budget", st.Bytes, budget)
		}
	})
}
