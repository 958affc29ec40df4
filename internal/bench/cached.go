package bench

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

func init() {
	register("cached", "Hot-sample cache: hit rate and round trips vs cache size (TCP plane)", runCachedExp)
}

// cachedConfig is one point of the cache sweep: a budget as a fraction of
// the dataset's encoded bytes, and an eviction policy.
type cachedConfig struct {
	frac   float64
	policy string
}

// runCachedExp measures the hot-sample cache on the TCP data plane: one
// client replays shuffled full-dataset epochs through a Group backed by two
// chunk servers, sweeping the cache budget (as a fraction of the dataset's
// encoded bytes) and the eviction policy. Per epoch it reports throughput,
// cache hit rate, and the number of wire round trips — the quantity the
// cache plus multi-get batching exists to shrink: a fully cached repeat
// epoch costs zero round trips.
func runCachedExp(o Options) (*Report, error) {
	samples := 512
	epochs := 3
	loadBatch := 32
	if o.Quick {
		samples = 96
	}
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: samples})

	// Two servers, each owning half the dataset, one replica group.
	half := int64(samples / 2)
	bounds := [][2]int64{{0, half}, {half, int64(samples)}}
	var servers []*transport.Server
	var addrs []string
	var totalBytes int64
	closeAll := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	defer closeAll()
	for _, bd := range bounds {
		gs := make([]*graph.Graph, 0, bd[1]-bd[0])
		for id := bd[0]; id < bd[1]; id++ {
			g, err := ds.Sample(id)
			if err != nil {
				return nil, err
			}
			gs = append(gs, g)
		}
		chunk := transport.NewMemChunk(bd[0], gs)
		for _, enc := range chunk.Encoded {
			totalBytes += int64(len(enc))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := transport.ServeListener(ln, chunk, transport.ServerOptions{WriteTimeout: time.Second})
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	configs := []cachedConfig{
		{0, ""}, {0.25, "lru"}, {0.5, "lru"}, {1, "lru"},
		{0.5, "fifo"}, {0.5, "clock"},
	}

	rep := &Report{ID: "cached", Title: "Hot-sample cache sweep on the TCP data plane",
		Columns: []string{"cache", "policy", "epoch", "samples/s", "hit rate", "round trips", "p50(µs)", "p95(µs)", "p99(µs)"}}

	for i, cfg := range configs {
		lat, err := cachedPass(rep, o, cfg, addrs, totalBytes, samples, epochs, loadBatch)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// The cacheless first configuration is the honest wire latency;
			// cached configurations dilute it with memory reads.
			rep.Latency = latencyDigest(lat)
		}
	}
	rep.AddNote("dataset: %d samples, %s encoded; each epoch loads every sample once in a fresh shuffled order, %d ids per Load", samples, humanBytes(totalBytes), loadBatch)
	rep.AddNote("shape to preserve: at 100%% budget every epoch after the first is >=90%% hits and zero round trips; at 0 the round-trip count is flat across epochs")
	rep.AddNote("p50/p95/p99 are the per-sample fetch latencies the loads returned, cumulative through the sweep row's epoch")
	return rep, nil
}

// cachedPass runs every epoch of one sweep configuration, appends the
// per-epoch rows, and returns every per-sample latency its loads returned.
func cachedPass(rep *Report, o Options, cfg cachedConfig, addrs []string, totalBytes int64, samples, epochs, loadBatch int) ([]time.Duration, error) {
	gopts := transport.GroupOptions{
		Client: transport.ClientOptions{
			Policy: transport.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   time.Millisecond,
				MaxDelay:    10 * time.Millisecond,
				ReadTimeout: time.Second,
				Seed:        int64(o.seed()),
			},
		},
	}
	prof := trace.New()
	gopts.Client.Counters = prof
	label := "off"
	if cfg.frac > 0 {
		pol, err := cache.ParsePolicy(cfg.policy)
		if err != nil {
			return nil, err
		}
		gopts.CacheBytes = int64(cfg.frac * float64(totalBytes))
		gopts.CachePolicy = pol
		// One shard keeps the byte budget exact (the default sharded split
		// can evict from a hot shard while others sit under budget), so the
		// "% of dataset" labels mean what they say. The sweep client is
		// single-threaded; shard contention is not in play.
		gopts.CacheShards = 1
		label = fmt.Sprintf("%.0f%%", cfg.frac*100)
	}
	grp, err := transport.NewGroupReplicas([][]string{addrs}, gopts)
	if err != nil {
		return nil, err
	}
	defer grp.Close()

	ids := make([]int64, samples)
	for i := range ids {
		ids[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(int64(o.seed())))
	// Dialing costs one Meta round trip per server; measure epochs from here.
	trips := prof.Counter(transport.CounterRoundTrips)
	var hits, misses int64
	var lats []time.Duration
	for epoch := 1; epoch <= epochs; epoch++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		start := time.Now()
		for off := 0; off < len(ids); off += loadBatch {
			end := off + loadBatch
			if end > len(ids) {
				end = len(ids)
			}
			views, lat, err := grp.LoadLazy(ids[off:end])
			if err != nil {
				return nil, fmt.Errorf("cache %s/%s epoch %d: %w", label, cfg.policy, epoch, err)
			}
			lats = append(lats, lat...)
			for k, v := range views {
				if g := v.Graph(); g.ID != ids[off+k] {
					return nil, fmt.Errorf("cache %s/%s: slot %d got sample %d, want %d",
						label, cfg.policy, off+k, g.ID, ids[off+k])
				}
			}
		}
		rate := float64(samples) / time.Since(start).Seconds()

		cs := grp.CacheStats()
		hitRate := "-"
		if lookups := (cs.Hits - hits) + (cs.Misses - misses); lookups > 0 {
			hitRate = fmt.Sprintf("%.0f%%", 100*float64(cs.Hits-hits)/float64(lookups))
		}
		hits, misses = cs.Hits, cs.Misses
		policy := cfg.policy
		if cfg.frac == 0 {
			policy = "-"
		}
		d := latencyDigest(lats)
		rep.AddRow(label, policy, epoch, fmt.Sprintf("%.0f", rate), hitRate,
			prof.Counter(transport.CounterRoundTrips)-trips,
			fmt.Sprintf("%.0f", d.P50us), fmt.Sprintf("%.0f", d.P95us), fmt.Sprintf("%.0f", d.P99us))
		trips = prof.Counter(transport.CounterRoundTrips)
	}
	return lats, nil
}
