package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/vtime"
)

func TestTwoSidedLoadsCorrectSamples(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided})
		if err != nil {
			return err
		}
		defer s.Close()
		ids := make([]int64, 40)
		for i := range ids {
			ids[i] = int64(i)
		}
		rng := vtime.NewRNG(uint64(c.Rank() + 5))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			want, _ := ds.Sample(ids[i])
			if g.ID != ids[i] || g.Y[0] != want.Y[0] {
				return fmt.Errorf("rank %d: sample %d mismatch", c.Rank(), ids[i])
			}
		}
		st := s.Stats()
		if st.RemoteGets == 0 || st.LocalReads == 0 {
			return fmt.Errorf("traffic not recorded: %+v", st)
		}
		if st.LockAcquires != 0 {
			return fmt.Errorf("two-sided path acquired %d RMA locks", st.LockAcquires)
		}
		return c.Barrier()
	})
}

// TestTwoSidedTimedLatencies: every remote sample of a load gets an equal,
// positive share of the exchange — on 4 ranks a load reaches 3 remote
// owners, so an exchange charged whole to the first owner's samples would
// leave the other owners' at zero.
func TestTwoSidedTimedLatencies(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	runWorld(t, 4, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided})
		if err != nil {
			return err
		}
		ids := []int64{0, 8, 15, 3, 4, 12} // every owner's chunk
		_, lat, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		if len(lat) != len(ids) {
			return fmt.Errorf("%d latencies", len(lat))
		}
		var share time.Duration
		for i, l := range lat {
			if l <= 0 {
				return fmt.Errorf("rank %d: latency %d = %v", c.Rank(), i, l)
			}
			owner, _ := s.OwnerOf(ids[i])
			if owner == s.group.Rank() {
				continue
			}
			if share == 0 {
				share = l
			}
			if l != share {
				return fmt.Errorf("rank %d: remote sample %d took %v, another %v", c.Rank(), ids[i], l, share)
			}
		}
		return c.Barrier()
	})
}

// TestTwoSidedBusyOwner is paper §3.1's case for one-sided RMA: an owner
// whose CPU is busy for 10 ms delays a two-sided requester by as much,
// because the owner serves the request only when it reaches the load, while
// a one-sided Get reads the owner's memory without it.
func TestTwoSidedBusyOwner(t *testing.T) {
	const busy = 10 * time.Millisecond
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	for _, f := range []Framework{FrameworkTwoSided, FrameworkRMA} {
		var took time.Duration
		runWorld(t, 2, cluster.Perlmutter(), func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Framework: f})
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				c.Clock().Advance(busy) // the owner is training
				_, _, err := loadGraphs(s, nil)
				return err
			}
			start := c.Clock().Now()
			if _, _, err := loadGraphs(s, []int64{8, 9, 10}); err != nil { // rank 1's chunk
				return err
			}
			took = c.Clock().Now() - start
			return nil
		})
		if twoSided := f == FrameworkTwoSided; twoSided != (took >= busy) {
			t.Errorf("framework %d: the requester's load took %v with the owner busy for %v", f, took, busy)
		}
	}
}

// TestTwoSidedOneRankErrors: a rank whose load fails before any fetch still
// serves the group's requests, so it alone sees an error, the others get
// exactly the bytes they asked for, and the next load runs in step.
func TestTwoSidedOneRankErrors(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	w, err := comm.NewWorld(4, 42, comm.WithMachine(cluster.Laptop()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Framework: FrameworkTwoSided})
			if err != nil {
				return err
			}
			ids := make([]int64, 32)
			for i := range ids {
				ids[i] = int64((i*7 + c.Rank()) % 32)
			}
			for round := 0; round < 2; round++ {
				asked := ids
				if round == 0 && c.Rank() == 2 {
					asked = []int64{5, 99}
				}
				views, _, err := s.LoadLazyTraced(asked, tracectx.Context{})
				if round == 0 && c.Rank() == 2 {
					if err == nil {
						return fmt.Errorf("rank 2: out-of-range id loaded")
					}
					continue
				}
				if err != nil {
					return fmt.Errorf("rank %d round %d: %w", c.Rank(), round, err)
				}
				for i, v := range views {
					want, _ := ds.Sample(asked[i])
					if got := v.AppendTo(nil); !bytes.Equal(got, want.AppendTo(nil)) {
						return fmt.Errorf("rank %d round %d: sample %d bytes differ", c.Rank(), round, asked[i])
					}
					v.Release()
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("two-sided loads hung after one rank's load failed")
	}
}

// TestTwoSidedLoadDeterministic: two-sided loads are a function of the
// world's seed — two runs give every rank the same clock and the same
// per-sample latencies.
func TestTwoSidedLoadDeterministic(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 256})
	runOnce := func() [][]time.Duration {
		got := make([][]time.Duration, 4)
		runWorld(t, 4, cluster.Perlmutter(), func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Framework: FrameworkTwoSided, CacheBytes: 1 << 16})
			if err != nil {
				return err
			}
			rng := c.RNG()
			var rec []time.Duration
			for batch := 0; batch < 6; batch++ {
				c.Clock().Advance(time.Duration(rng.Intn(1000)) * time.Microsecond)
				ids := make([]int64, 16)
				for i := range ids {
					ids[i] = int64(rng.Intn(256))
				}
				_, lat, err := loadGraphs(s, ids)
				if err != nil {
					return err
				}
				rec = append(append(rec, lat...), c.Clock().Now())
			}
			got[c.Rank()] = rec
			return nil
		})
		return got
	}
	a, b := runOnce(), runOnce()
	for r := range a {
		if !slices.Equal(a[r], b[r]) {
			t.Fatalf("rank %d: runs differ\n%v\n%v", r, a[r], b[r])
		}
	}
}

func TestLockPerSampleCountsLocks(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{LockPerSample: true})
		if err != nil {
			return err
		}
		ids := make([]int64, 32)
		for i := range ids {
			ids[i] = int64(i)
		}
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g.ID != ids[i] {
				return fmt.Errorf("id mismatch at %d", i)
			}
		}
		st := s.Stats()
		// Per-sample locking: one lock per remote get (24 remote of 32).
		if st.LockAcquires != st.RemoteGets {
			return fmt.Errorf("locks %d != remote gets %d", st.LockAcquires, st.RemoteGets)
		}
		return nil
	})
}

func TestNonBlockingLoadsCorrectSamples(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 64})
	runWorld(t, 4, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{NonBlocking: true})
		if err != nil {
			return err
		}
		ids := make([]int64, 64)
		for i := range ids {
			ids[i] = int64(i)
		}
		got, lat, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			want, _ := ds.Sample(ids[i])
			if g.ID != ids[i] || g.NumNodes != want.NumNodes {
				return fmt.Errorf("sample %d mismatch", ids[i])
			}
		}
		for i, l := range lat {
			if l <= 0 {
				return fmt.Errorf("latency %d = %v", i, l)
			}
		}
		return nil
	})
}

// TestCommDesignOrdering verifies the RMA half of the paper's design
// rationale end-to-end: overlapped non-blocking gets beat blocking gets,
// which beat per-sample locking. The two-sided half, an owner's busy CPU,
// is TestTwoSidedBusyOwner.
func TestCommDesignOrdering(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 2048})
	load := func(opts Options) time.Duration {
		var total time.Duration
		var mu sync.Mutex
		runWorld(t, 8, cluster.Perlmutter(), func(c *comm.Comm) error {
			s, err := Open(c, ds, opts)
			if err != nil {
				return err
			}
			defer s.Close()
			rng := vtime.NewRNG(uint64(c.Rank()) * 31)
			start := c.Clock().Now()
			for batch := 0; batch < 4; batch++ {
				ids := make([]int64, 64)
				for i := range ids {
					ids[i] = int64(rng.Intn(2048))
				}
				if _, _, err := loadGraphs(s, ids); err != nil {
					return err
				}
			}
			elapsed := c.Clock().Now() - start
			mu.Lock()
			total += elapsed
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			return nil
		})
		return total
	}
	perSample := load(Options{LockPerSample: true})
	blocking := load(Options{})
	nonBlocking := load(Options{NonBlocking: true})
	if !(nonBlocking < blocking && blocking < perSample) {
		t.Fatalf("RMA design ordering violated: nb=%v blocking=%v perSample=%v",
			nonBlocking, blocking, perSample)
	}
}
