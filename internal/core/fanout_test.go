package core

import (
	"fmt"
	"sync"
	"testing"

	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// loadAll opens a width-8 store and loads one batch touching every owner.
func fanOutBatch(total int) []int64 {
	ids := make([]int64, 0, 2*8)
	for g := 0; g < 8; g++ {
		base := int64(g * total / 8)
		ids = append(ids, base, base+1)
	}
	return ids
}

// TestLoadFanOutMatchesSerial: the concurrent per-owner fetch must return
// the same graphs and the same traffic counters as FetchParallelism=1, for
// both frameworks, with and without a cache.
func TestLoadFanOutMatchesSerial(t *testing.T) {
	const total = 64
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"rma", Options{}},
		{"rma-cached", Options{CacheBytes: 1 << 20}},
		{"rma-nonblocking", Options{NonBlocking: true}},
		{"twosided", Options{Framework: FrameworkTwoSided}},
	} {
		for _, par := range []int{1, 0, 8} {
			t.Run(fmt.Sprintf("%s/par%d", tc.name, par), func(t *testing.T) {
				opts := tc.opts
				opts.FetchParallelism = par
				runWorld(t, 8, nil, func(c *comm.Comm) error {
					s, err := Open(c, ds, opts)
					if err != nil {
						return err
					}
					defer s.Close()
					ids := fanOutBatch(total)
					graphs, err := s.Load(ids)
					if err != nil {
						return err
					}
					for i, g := range graphs {
						if g.ID != ids[i] {
							return fmt.Errorf("rank %d: position %d has id %d want %d", c.Rank(), i, g.ID, ids[i])
						}
						want, _ := ds.ReadSample(ids[i])
						if len(g.NodeFeat) != len(want.NodeFeat) {
							return fmt.Errorf("sample %d: %d node feats want %d", ids[i], len(g.NodeFeat), len(want.NodeFeat))
						}
					}
					st := s.Stats()
					// Every rank loaded 16 samples: 2 local, 14 remote
					// (or cache hits after the first load — not here).
					if st.LocalReads != 2 || st.RemoteGets != 14 {
						return fmt.Errorf("rank %d: stats %+v, want 2 local / 14 remote", c.Rank(), st)
					}
					return s.world.Barrier()
				})
			})
		}
	}
}

// TestLoadConcurrentRace hammers one store's Load from many goroutines on
// every rank at full fan-out — the -race test for the atomic Stats, the
// flight table, and the buffer pool. Run with: go test -race.
func TestLoadConcurrentRace(t *testing.T) {
	const total = 96
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		const loaders = 4
		var wg sync.WaitGroup
		errs := make([]error, loaders)
		for w := 0; w < loaders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					ids := make([]int64, 12)
					for i := range ids {
						// Overlapping ids across goroutines exercise the
						// coalescing flight table.
						ids[i] = int64((w*7 + rep*13 + i*5) % total)
					}
					graphs, err := s.Load(ids)
					if err != nil {
						errs[w] = err
						return
					}
					for i, g := range graphs {
						if g.ID != ids[i] {
							errs[w] = fmt.Errorf("goroutine %d: got id %d want %d", w, g.ID, ids[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		total := s.Stats()
		if total.LocalReads+total.RemoteGets == 0 {
			return fmt.Errorf("no traffic counted")
		}
		return s.world.Barrier()
	})
}

// BenchmarkStoreLoadOwners measures one Load against a growing owner
// fan-out (in-process RMA, functional mode), serial vs full parallelism.
func BenchmarkStoreLoadOwners(b *testing.B) {
	const total = 256
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	for _, owners := range []int{1, 2, 4, 7} {
		for _, par := range []int{1, 0} {
			name := fmt.Sprintf("owners%d/par%d", owners, par)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				w, err := comm.NewWorld(8, 42)
				if err != nil {
					b.Fatal(err)
				}
				runErr := w.Run(func(c *comm.Comm) error {
					s, err := Open(c, ds, Options{FetchParallelism: par})
					if err != nil {
						return err
					}
					if c.Rank() != 0 {
						return s.world.Barrier()
					}
					// Rank 0 loads 4 samples from each of `owners` remote
					// owners while the rest idle at the barrier.
					var ids []int64
					for g := 1; g <= owners; g++ {
						base := int64(g * total / 8)
						ids = append(ids, base, base+1, base+2, base+3)
					}
					var sink []*graph.Graph
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sink, err = s.Load(ids)
						if err != nil {
							return err
						}
					}
					b.StopTimer()
					_ = sink
					return s.world.Barrier()
				})
				if runErr != nil {
					b.Fatal(runErr)
				}
			})
		}
	}
}
