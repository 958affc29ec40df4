package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/fetch"
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

// TestLoadFanOutMatchesSerial: a load over every owner returns the right
// graphs and the same traffic counters whatever GOMAXPROCS is (par; 0
// leaves it as it is), for both frameworks, with and without a cache — the
// split-phase fan-out runs on the calling goroutine, so the processor count
// must change nothing.
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
				if par > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				}
				runWorld(t, 8, nil, func(c *comm.Comm) error {
					s, err := Open(c, ds, tc.opts)
					if err != nil {
						return err
					}
					defer s.Close()
					ids := fanOutBatch(total)
					graphs, _, err := loadGraphs(s, ids)
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
					graphs, _, err := loadGraphs(s, ids)
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
// fan-out (in-process RMA, functional mode).
func BenchmarkStoreLoadOwners(b *testing.B) {
	const total = 256
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	for _, owners := range []int{1, 2, 4, 7} {
		b.Run(fmt.Sprintf("owners%d", owners), func(b *testing.B) {
			b.ReportAllocs()
			w, err := comm.NewWorld(8, 42)
			if err != nil {
				b.Fatal(err)
			}
			runErr := w.Run(func(c *comm.Comm) error {
				s, err := Open(c, ds, Options{})
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
					sink, _, err = loadGraphs(s, ids)
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

// TestLockCostLandsOnFirstSample pins where storePlane charges a per-batch
// shared lock: one epoch per remote owner's Collect, its cost on the
// owner's first delivered sample and on no other, for the sequential and
// the non-blocking wire; a local owner takes no lock.
func TestLockCostLandsOnFirstSample(t *testing.T) {
	const total = 16
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	for _, nb := range []bool{false, true} {
		runWorld(t, 2, cluster.Laptop(), func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{NonBlocking: nb})
			if err != nil {
				return err
			}
			defer s.Close()
			if c.Rank() != 0 {
				return s.world.Barrier()
			}
			clock := c.Clock()
			var lats, at []time.Duration
			deliver := func(id int64, raw []byte, ref graph.Ref, lat time.Duration) error {
				lats, at = append(lats, lat), append(at, clock.Now())
				if ref != nil {
					ref.Release()
				}
				return nil
			}
			plane := storePlane{s: s}
			locks := s.Stats().LockAcquires
			if err := plane.Collect(&fetch.Pending{Owner: 0, IDs: []int64{0, 1}}, deliver); err != nil {
				return err
			}
			if got := s.Stats().LockAcquires; got != locks {
				return fmt.Errorf("nonblocking=%t: a local owner took %d locks", nb, got-locks)
			}
			lats, at = lats[:0], at[:0]
			start := clock.Now()
			if err := plane.Collect(&fetch.Pending{Owner: 1, IDs: []int64{8, 9, 10}}, deliver); err != nil {
				return err
			}
			if got := s.Stats().LockAcquires; got != locks+1 {
				return fmt.Errorf("nonblocking=%t: %d locks for one remote owner, want 1", nb, got-locks)
			}
			if nb {
				// The overlapped wait is shared evenly; only the first sample
				// carries the lock on top.
				if lats[0] <= lats[1] || lats[1] != lats[2] {
					return fmt.Errorf("nonblocking: latencies %v, want the first alone above an even share", lats)
				}
			} else if lats[0] != at[0]-start || lats[1] != at[1]-at[0] || lats[2] != at[2]-at[1] {
				// Each sample's latency is its own Get; the first's starts
				// before the lock was taken.
				return fmt.Errorf("sequential: latencies %v, want %v", lats,
					[]time.Duration{at[0] - start, at[1] - at[0], at[2] - at[1]})
			}
			return s.world.Barrier()
		})
	}
}
