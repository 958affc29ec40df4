package faultnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

// loadBatch loads ids through the trainer's loader, as one batch.
func loadBatch(p ddp.DataPlane, ids []int64) (*graph.Batch, []time.Duration, error) {
	return (&ddp.PlaneLoader{Plane: p}).LoadBatch(ids)
}

// chaosChunk encodes ds samples [lo, hi) into a servable chunk.
func chaosChunk(t *testing.T, ds *datasets.Dataset, lo, hi int64) *transport.MemChunk {
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

// TestGroupSurvivesChaos is the chaos soak: 4 servers in 2 replica groups
// run under a seeded fault scenario (5% connection resets, 1% corrupt
// payloads, occasional stalls longer than the client deadline), and one
// server is killed mid-run. Every sample must still load correctly on
// every pass, with the failover machinery demonstrably engaged. The
// scenario RNG is seeded, so each seed replays the same fault mix.
func TestGroupSurvivesChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})

	// Union of fault kinds over the fixed seeds; each kind must fire in at
	// least one seed (reset, stall -> deadline, corrupt -> checksum
	// reject, dead server -> replica failover is asserted per seed).
	var union Stats
	var unionTimeouts, unionChecksum int64

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := New(Scenario{
				Seed:      seed,
				ResetProb: 0.05,
				StallProb: 0.01, StallFor: 250 * time.Millisecond,
				CorruptProb: 0.01,
			})

			// 2 replica groups x 2 servers, all accepting through the
			// injector.
			bounds := [][2]int64{{0, 20}, {20, 40}}
			servers := make([][]*transport.Server, 2)
			addrs := make([][]string, 2)
			for r := 0; r < 2; r++ {
				for _, bd := range bounds {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					srv := transport.ServeListener(in.Listener(ln), chaosChunk(t, ds, bd[0], bd[1]),
						transport.ServerOptions{WriteTimeout: time.Second})
					defer srv.Close()
					servers[r] = append(servers[r], srv)
					addrs[r] = append(addrs[r], srv.Addr())
				}
			}

			prof := trace.New()
			grp, err := transport.NewGroupReplicas(addrs, transport.GroupOptions{
				Client: transport.ClientOptions{
					Policy: transport.RetryPolicy{
						MaxAttempts: 8,
						BaseDelay:   time.Millisecond,
						MaxDelay:    10 * time.Millisecond,
						DialTimeout: time.Second,
						ReadTimeout: 60 * time.Millisecond,
						Seed:        seed,
					},
					Counters: prof,
				},
				FailoverCooldown: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer grp.Close()

			verifyAll := func(pass string) {
				for id := int64(0); id < 40; id++ {
					b, _, err := loadBatch(grp, []int64{id})
					if err != nil {
						t.Fatalf("%s: sample %d: %v", pass, id, err)
					}
					want, _ := ds.Sample(id)
					if b.IDs[0] != id || b.NumNodes != want.NumNodes || b.Y[0] != want.Y[0] {
						t.Fatalf("%s: sample %d corrupted end to end", pass, id)
					}
				}
			}

			verifyAll("healthy pass")
			// Kill one server mid-run: replica 0's owner of [0,20).
			servers[0][0].Close()
			verifyAll("degraded pass 1")
			verifyAll("degraded pass 2")

			if prof.Counter(transport.CounterFailovers) == 0 {
				t.Fatalf("dead server never triggered failover: %v", prof.Counters())
			}
			st := in.Stats()
			t.Logf("seed %d: injector %+v, counters %v", seed, st, prof.Counters())
			union.Resets += st.Resets
			union.Stalls += st.Stalls
			union.Corruptions += st.Corruptions
			unionTimeouts += prof.Counter(transport.CounterTimeouts)
			unionChecksum += prof.Counter(transport.CounterChecksumErrors)
		})
	}

	if union.Resets == 0 {
		t.Error("no seed injected a connection reset")
	}
	if union.Stalls == 0 || unionTimeouts == 0 {
		t.Errorf("no seed exercised stall -> deadline (stalls=%d timeouts=%d)", union.Stalls, unionTimeouts)
	}
	if union.Corruptions == 0 || unionChecksum == 0 {
		t.Errorf("no seed exercised corrupt -> checksum reject (corruptions=%d rejects=%d)", union.Corruptions, unionChecksum)
	}
}

// TestCacheSurvivesOwnerDeath is the cache/chaos interplay: the hot-sample
// cache is warmed through a fault injector, then the owning servers die.
// Cached ids must keep loading with ZERO additional round trips; ids that
// were never cached must fail over to the surviving replica (and, once
// every owner of their range is dead, fail outright) — the cache is a
// resilience layer on top of replica failover, not a replacement for it.
func TestCacheSurvivesOwnerDeath(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	in := New(Scenario{Seed: 7, ResetProb: 0.05})

	// 2 replica groups x 2 servers, all accepting through the injector.
	bounds := [][2]int64{{0, 20}, {20, 40}}
	servers := make([][]*transport.Server, 2)
	addrs := make([][]string, 2)
	for r := 0; r < 2; r++ {
		for _, bd := range bounds {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := transport.ServeListener(in.Listener(ln), chaosChunk(t, ds, bd[0], bd[1]),
				transport.ServerOptions{WriteTimeout: time.Second})
			defer srv.Close()
			servers[r] = append(servers[r], srv)
			addrs[r] = append(addrs[r], srv.Addr())
		}
	}

	prof := trace.New()
	grp, err := transport.NewGroupReplicas(addrs, transport.GroupOptions{
		Client: transport.ClientOptions{
			Policy: transport.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   time.Millisecond,
				MaxDelay:    10 * time.Millisecond,
				DialTimeout: time.Second,
				ReadTimeout: 100 * time.Millisecond,
				Seed:        7,
			},
			Counters: prof,
		},
		FailoverCooldown: 100 * time.Millisecond,
		CacheBytes:       1 << 20, // the whole dataset fits
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	load := func(pass string, ids []int64) {
		t.Helper()
		got, _, err := loadBatch(grp, ids)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		for i, id := range got.IDs {
			if id != ids[i] {
				t.Fatalf("%s: slot %d got sample %d, want %d", pass, i, id, ids[i])
			}
		}
	}
	idRange := func(lo, hi int64) []int64 {
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return ids
	}

	// Warm the cache with HALF of the [0,20) chunk, through injected faults.
	load("warm pass", idRange(0, 10))

	// Kill replica 0's owner of [0,20): cached ids stay wire-free, uncached
	// ids must fail over to replica 1's owner.
	servers[0][0].Close()
	before := prof.Counter(transport.CounterRoundTrips)
	load("cached after owner death", idRange(0, 10))
	if d := prof.Counter(transport.CounterRoundTrips) - before; d != 0 {
		t.Fatalf("cached ids cost %d round trips after owner death, want 0", d)
	}
	load("uncached failover", idRange(10, 20))
	if prof.Counter(transport.CounterFailovers) == 0 {
		t.Fatalf("uncached ids never failed over: %v", prof.Counters())
	}

	// Kill the surviving owner too: every server holding [0,20) is now
	// dead, yet the cache (warmed partly through failover fetches) still
	// serves the whole range without touching the wire.
	servers[1][0].Close()
	before = prof.Counter(transport.CounterRoundTrips)
	load("fully cached, all owners dead", idRange(0, 20))
	if d := prof.Counter(transport.CounterRoundTrips) - before; d != 0 {
		t.Fatalf("cached range cost %d round trips with every owner dead, want 0", d)
	}
	// The other chunk is untouched by the carnage.
	load("other chunk still served", idRange(20, 40))
}
