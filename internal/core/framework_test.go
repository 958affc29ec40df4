package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
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

func TestTwoSidedTimedLatencies(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	runWorld(t, 2, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided})
		if err != nil {
			return err
		}
		defer s.Close()
		_, lat, err := loadGraphs(s, []int64{0, 8, 15, 3})
		if err != nil {
			return err
		}
		if len(lat) != 4 {
			return fmt.Errorf("%d latencies", len(lat))
		}
		for i, l := range lat {
			if l <= 0 {
				return fmt.Errorf("latency %d = %v", i, l)
			}
		}
		return c.Barrier()
	})
}

func TestTwoSidedCloseIdempotentAndRMACloseNoop(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	runWorld(t, 2, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Framework: FrameworkTwoSided})
		if err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		if err := s.Close(); err != nil { // second close is a no-op
			return err
		}
		rma, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		return rma.Close()
	})
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

// TestCommDesignOrdering verifies the paper's design rationale end-to-end:
// overlapped non-blocking gets beat blocking gets, which beat per-sample
// locking; all RMA variants beat the two-sided design when owners are busy.
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
