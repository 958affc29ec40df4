package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
	"ddstore/internal/vtime"
)

// loadGraphs is an untraced lazy load from a Store (or a transport.Group)
// with every view materialized in request order.
func loadGraphs(p interface {
	LoadLazyTraced([]int64, tracectx.Context) ([]*graph.Lazy, []time.Duration, error)
}, ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := p.LoadLazyTraced(ids, tracectx.Context{})
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

func runWorld(t *testing.T, n int, machine *cluster.Machine, fn func(c *comm.Comm) error) {
	t.Helper()
	var opts []comm.Option
	if machine != nil {
		opts = append(opts, comm.WithMachine(machine))
	}
	w, err := comm.NewWorld(n, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestChunkStartsExactCover(t *testing.T) {
	f := func(rawTotal uint16, rawW uint8) bool {
		total := int(rawTotal)%5000 + 1
		w := int(rawW)%64 + 1
		starts := chunkStarts(total, w)
		if starts[0] != 0 || starts[w] != int64(total) {
			return false
		}
		for g := 0; g < w; g++ {
			size := starts[g+1] - starts[g]
			// Balanced: sizes differ by at most 1 and are non-negative.
			if size < 0 || size > int64(total/w)+1 {
				return false
			}
			if starts[g+1] < starts[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		if _, err := Open(c, ds, Options{Width: 3}); err == nil {
			return fmt.Errorf("width 3 with 4 ranks accepted")
		}
		if _, err := Open(c, ds, Options{Width: 5}); err == nil {
			return fmt.Errorf("width > size accepted")
		}
		if _, err := Open(c, ds, Options{Width: -1}); err == nil {
			return fmt.Errorf("negative width accepted")
		}
		empty := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
		_ = empty
		return nil
	})
}

func TestStoreMetadata(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 32})
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 2})
		if err != nil {
			return err
		}
		if s.Len() != 32 || s.Width() != 2 || s.Replicas() != 2 {
			return fmt.Errorf("metadata: len=%d w=%d r=%d", s.Len(), s.Width(), s.Replicas())
		}
		lo, hi := s.LocalRange()
		if hi-lo != 16 { // 32 samples / width 2
			return fmt.Errorf("rank %d local range [%d,%d)", c.Rank(), lo, hi)
		}
		if s.MemoryBytes() <= 0 {
			return fmt.Errorf("no chunk memory")
		}
		return nil
	})
}

func TestLoadAllSamplesEveryWidth(t *testing.T) {
	const n = 8
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 37}) // not divisible by widths
	for _, width := range []int{1, 2, 4, 8} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			runWorld(t, n, cluster.Laptop(), func(c *comm.Comm) error {
				s, err := Open(c, ds, Options{Width: width})
				if err != nil {
					return err
				}
				// Every rank loads every sample in a rank-dependent shuffled
				// order; contents must match the generator.
				ids := make([]int64, 37)
				for i := range ids {
					ids[i] = int64(i)
				}
				rng := vtime.NewRNG(uint64(c.Rank() + 1))
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				got, _, err := loadGraphs(s, ids)
				if err != nil {
					return err
				}
				for i, g := range got {
					want, _ := ds.Sample(ids[i])
					if g.ID != ids[i] || g.NumNodes != want.NumNodes || g.Y[0] != want.Y[0] {
						return fmt.Errorf("rank %d: sample %d mismatch", c.Rank(), ids[i])
					}
				}
				return nil
			})
		})
	}
}

func TestWidthOneIsAllLocal(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 1})
		if err != nil {
			return err
		}
		if s.Replicas() != 4 {
			return fmt.Errorf("replicas = %d", s.Replicas())
		}
		ids := []int64{0, 5, 10, 19}
		if _, _, err := loadGraphs(s, ids); err != nil {
			return err
		}
		st := s.Stats()
		if st.RemoteGets != 0 {
			return fmt.Errorf("width=1 issued %d remote gets", st.RemoteGets)
		}
		if st.LocalReads != int64(len(ids)) {
			return fmt.Errorf("local reads = %d", st.LocalReads)
		}
		return nil
	})
}

func TestDefaultWidthSingleReplica(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 24})
	runWorld(t, 6, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		if s.Width() != 6 || s.Replicas() != 1 {
			return fmt.Errorf("default width=%d replicas=%d", s.Width(), s.Replicas())
		}
		lo, hi := s.LocalRange()
		if hi-lo != 4 {
			return fmt.Errorf("local range [%d,%d)", lo, hi)
		}
		return nil
	})
}

func TestOwnerOf(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 4})
		if err != nil {
			return err
		}
		// 10 samples over 4 members: 3,3,2,2.
		wantOwner := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
		for id, want := range wantOwner {
			got, err := s.OwnerOf(int64(id))
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("OwnerOf(%d) = %d, want %d", id, got, want)
			}
		}
		if _, err := s.OwnerOf(10); err == nil {
			return fmt.Errorf("out-of-range id accepted")
		}
		if _, err := s.OwnerOf(-1); err == nil {
			return fmt.Errorf("negative id accepted")
		}
		return nil
	})
}

func TestOwnershipInvariant(t *testing.T) {
	// Property: every sample's owner holds it in its local range.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 53})
	runWorld(t, 8, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 4})
		if err != nil {
			return err
		}
		lo, hi := s.LocalRange()
		for id := int64(0); id < 53; id++ {
			owner, err := s.OwnerOf(id)
			if err != nil {
				return err
			}
			ownsHere := id >= lo && id < hi
			if (owner == s.group.Rank()) != ownsHere {
				return fmt.Errorf("rank %d: owner of %d is %d but local range is [%d,%d)",
					c.Rank(), id, owner, lo, hi)
			}
		}
		return nil
	})
}

func TestChunkOwnerInvertsChunkStarts(t *testing.T) {
	// The closed-form owner names, for every id, the member whose chunk
	// holds it — including total < w, where the trailing chunks are empty.
	for total := 0; total <= 64; total++ {
		for w := 1; w <= 9; w++ {
			starts := chunkStarts(total, w)
			for g := 0; g < w; g++ {
				for id := starts[g]; id < starts[g+1]; id++ {
					if got := chunkOwner(id, total, w); got != g {
						t.Fatalf("total %d, w %d: owner of %d = %d, chunk [%d,%d) is member %d's",
							total, w, id, got, starts[g], starts[g+1], g)
					}
				}
			}
		}
	}
}

func TestLoadErrorOnBadID(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	runWorld(t, 2, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		if _, _, err := loadGraphs(s, []int64{0, 99}); err == nil {
			return fmt.Errorf("bad id accepted")
		}
		return nil
	})
}

func TestLoadEmptyBatch(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	runWorld(t, 2, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		got, _, err := loadGraphs(s, nil)
		if err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("empty batch returned %d graphs", len(got))
		}
		return nil
	})
}

func TestLoadTimedLatencies(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 64})
	runWorld(t, 8, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
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
		if len(got) != 64 || len(lat) != 64 {
			return fmt.Errorf("timed load returned %d graphs %d latencies", len(got), len(lat))
		}
		for i, l := range lat {
			if l <= 0 {
				return fmt.Errorf("sample %d latency %v", i, l)
			}
		}
		return nil
	})
}

func TestSmallWidthReducesLatency(t *testing.T) {
	// Fig. 12 / Table 3: width=2 median latency is far below width=N.
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 512})
	medianFor := func(width int) time.Duration {
		var med time.Duration
		var mu sync.Mutex
		runWorld(t, 16, cluster.Perlmutter(), func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Width: width})
			if err != nil {
				return err
			}
			rng := vtime.NewRNG(uint64(7 + c.Rank()))
			ids := make([]int64, 256)
			for i := range ids {
				ids[i] = int64(rng.Intn(512))
			}
			_, lat, err := loadGraphs(s, ids)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sorted := append([]time.Duration(nil), lat...)
				for i := 1; i < len(sorted); i++ {
					for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
						sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
					}
				}
				mu.Lock()
				med = sorted[len(sorted)/2]
				mu.Unlock()
			}
			return nil
		})
		return med
	}
	wide := medianFor(16)  // single replica spanning 4 nodes
	narrow := medianFor(2) // 8 replicas, groups within a node
	if narrow >= wide {
		t.Fatalf("width=2 median (%v) not below width=16 median (%v)", narrow, wide)
	}
	// Paper reports ~80–87%% median reduction; require at least 50%%.
	if float64(narrow) > 0.5*float64(wide) {
		t.Fatalf("width=2 median %v, want < 50%% of width=16 median %v", narrow, wide)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		ids := make([]int64, 16)
		for i := range ids {
			ids[i] = int64(i)
		}
		if _, _, err := loadGraphs(s, ids); err != nil {
			return err
		}
		st := s.Stats()
		if st.LocalReads != 4 || st.RemoteGets != 12 {
			return fmt.Errorf("stats: %+v", st)
		}
		if st.LockAcquires != 3 { // one epoch per remote owner
			return fmt.Errorf("lock acquires = %d", st.LockAcquires)
		}
		if st.BytesLocal <= 0 || st.BytesRemote <= 0 {
			return fmt.Errorf("byte counters: %+v", st)
		}
		return nil
	})
}

func TestProfilerRegions(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	runWorld(t, 2, cluster.Laptop(), func(c *comm.Comm) error {
		prof := trace.New()
		s, err := Open(c, ds, Options{Profiler: prof})
		if err != nil {
			return err
		}
		if _, _, err := loadGraphs(s, []int64{0, 7}); err != nil {
			return err
		}
		if prof.Get(trace.RegionRMA).Count == 0 {
			return fmt.Errorf("no RMA region recorded")
		}
		return nil
	})
}

func TestGroupIsolation(t *testing.T) {
	// Two replica groups must never exchange data: check the traffic stays
	// within each group by verifying every rank can load everything even
	// though its window only spans its group.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	runWorld(t, 8, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 4})
		if err != nil {
			return err
		}
		if s.group.Size() != 4 {
			return fmt.Errorf("group size %d", s.group.Size())
		}
		ids := []int64{0, 13, 27, 39}
		got, _, err := loadGraphs(s, ids)
		if err != nil {
			return err
		}
		for i, g := range got {
			if g.ID != ids[i] {
				return fmt.Errorf("got id %d want %d", g.ID, ids[i])
			}
		}
		return nil
	})
}

func TestConcurrentLoadsAcrossRanks(t *testing.T) {
	// All ranks hammer the same owners simultaneously (the shuffled-batch
	// pattern); run with -race to catch synchronization bugs.
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 128})
	runWorld(t, 8, cluster.Perlmutter(), func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		rng := vtime.NewRNG(uint64(c.Rank()) + 99)
		for epoch := 0; epoch < 3; epoch++ {
			ids := make([]int64, 64)
			for i := range ids {
				ids[i] = int64(rng.Intn(128))
			}
			got, _, err := loadGraphs(s, ids)
			if err != nil {
				return err
			}
			for i, g := range got {
				if g.ID != ids[i] {
					return fmt.Errorf("epoch %d: id mismatch", epoch)
				}
			}
		}
		return nil
	})
}

func TestMemoryScalesWithReplicas(t *testing.T) {
	// Total memory across ranks = replicas × dataset bytes: width=N uses
	// half the memory of width=N/2.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 64})
	memTotal := func(width int) int64 {
		var total int64
		var mu sync.Mutex
		runWorld(t, 8, nil, func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Width: width})
			if err != nil {
				return err
			}
			mu.Lock()
			total += s.MemoryBytes()
			mu.Unlock()
			return nil
		})
		return total
	}
	m8 := memTotal(8) // 1 replica
	m4 := memTotal(4) // 2 replicas
	m1 := memTotal(1) // 8 replicas
	if m4 != 2*m8 || m1 != 8*m8 {
		t.Fatalf("memory: w=8:%d w=4:%d w=1:%d", m8, m4, m1)
	}
}

// BenchmarkStoreLoadRemote measures the true wall-clock cost of DDStore's
// access pattern: an in-memory RMA copy + decode per sample (compare with
// the real-file benchmarks in internal/pff and internal/cff — this is why
// the store wins: no filesystem in the steady state).
func BenchmarkStoreLoadRemote(b *testing.B) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 512})
	w, err := comm.NewWorld(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return c.Barrier()
		}
		rng := vtime.NewRNG(3)
		ids := make([]int64, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids[0] = int64(rng.Intn(512))
			if _, _, err := loadGraphs(s, ids); err != nil {
				return err
			}
		}
		b.StopTimer()
		return c.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreLoadBatch128 measures a full shuffled 128-sample batch load.
func BenchmarkStoreLoadBatch128(b *testing.B) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 4096})
	w, err := comm.NewWorld(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return c.Barrier()
		}
		rng := vtime.NewRNG(5)
		ids := make([]int64, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range ids {
				ids[j] = int64(rng.Intn(4096))
			}
			if _, _, err := loadGraphs(s, ids); err != nil {
				return err
			}
		}
		b.StopTimer()
		return c.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestDialGroupFailsOver serves a store's chunks over the TCP plane end to
// end: 4 ranks with width 2 give 2 replica groups, each rank's *Store is the
// chunk source of its own server, and a group dialed over both replicas
// (counters sunk into a rank profiler) keeps loading every sample after a
// whole replica group's server dies.
func TestDialGroupFailsOver(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 24})
	prof := trace.New()
	net := transport.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		ReadTimeout: time.Second,
	}

	servers := make([]*transport.Server, 4)
	addrs := make([]string, 4)
	var mu sync.Mutex
	runWorld(t, 4, nil, func(c *comm.Comm) error {
		st, err := Open(c, ds, Options{Width: 2})
		if err != nil {
			return err
		}
		srv, err := transport.ServeWith("127.0.0.1:0", st, transport.ServerOptions{WriteTimeout: time.Second})
		if err != nil {
			return err
		}
		mu.Lock()
		servers[c.Rank()] = srv
		addrs[c.Rank()] = srv.Addr()
		mu.Unlock()
		return c.Barrier()
	})
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// Ranks 0-1 form replica 0, ranks 2-3 replica 1 (width 2).
	grp, err := transport.NewGroupReplicas([][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}},
		transport.GroupOptions{Client: transport.ClientOptions{Policy: net, Counters: prof}})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	verify := func(pass string) {
		for id := int64(0); id < 24; id++ {
			gs, _, err := loadGraphs(grp, []int64{id})
			if err != nil {
				t.Fatalf("%s: sample %d: %v", pass, id, err)
			}
			g := gs[0]
			if g.ID != id {
				t.Fatalf("%s: sample %d returned %d", pass, id, g.ID)
			}
		}
	}
	verify("healthy")
	servers[0].Close()
	servers[1].Close() // all of replica 0 is now gone
	verify("replica 0 dead")
	if prof.Counter(transport.CounterFailovers) == 0 {
		t.Fatalf("profiler recorded no failovers: %v", prof.Counters())
	}
}
