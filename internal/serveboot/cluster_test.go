package serveboot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/faultnet"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

// loadGraphs loads ids through the trainer's loader, lazily, and
// materializes every view: a Graph per position.
func loadGraphs(p ddp.DataPlane, ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := (&ddp.PlaneLoader{Plane: p}).LoadBatchLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

// fastNet is a retry policy tuned for loopback tests.
func fastNet() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		DialTimeout: time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
		Seed: 1,
	}
}

func bootTestCluster(t *testing.T, owners, n int, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Source: datasets.HomoLumo(datasets.Config{NumGraphs: n}),
		Owners: owners,
		Net:    fastNet(),
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := BootCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func elasticGroup(t *testing.T, c *Cluster) *transport.Group {
	t.Helper()
	g, _ := countedGroup(t, c)
	return g
}

// countedGroup is elasticGroup with the group's event counts in a profiler.
func countedGroup(t *testing.T, c *Cluster) (*transport.Group, *trace.Profiler) {
	t.Helper()
	prof := trace.New()
	g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
		Client: transport.ClientOptions{Policy: fastNet(), Counters: prof},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, prof
}

// loadAll loads every sample through the group and checks identity.
func loadAll(t *testing.T, g *transport.Group, n int64) {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, gr := range gs {
		if gr == nil || gr.ID != int64(i) {
			t.Fatalf("sample %d came back wrong (%v)", i, gr)
		}
	}
}

func TestBootClusterServesAllSamples(t *testing.T) {
	c := bootTestCluster(t, 2, 200, nil)
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d, want 2", got)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("generation %d, want 1", got)
	}
	// The whole keyspace is resident exactly once across the owners
	// (width 1).
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 200 {
		t.Fatalf("%d samples resident across owners, want 200", total)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 200)
}

func TestAddOwnerMovesMinimalDataAndRebalances(t *testing.T) {
	c := bootTestCluster(t, 2, 240, nil)
	id, err := c.AddOwner()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after join = %d, want 2", got)
	}
	newOwner := c.Owner(id)
	if newOwner == nil || newOwner.Resident() == 0 {
		t.Fatalf("joined owner holds no data")
	}
	// Balance: every owner within one shard (240/16 shards = 15 samples
	// per shard) of the mean.
	for _, oid := range c.OwnerIDs() {
		r := c.Owner(oid).Resident()
		if r < 240/3-15 || r > 240/3+15 {
			t.Fatalf("owner %s holds %d samples after rebalance to 3 owners", oid, r)
		}
	}
	// The moved volume was metered.
	reg := c.Registry()
	snap := metricValue(t, reg, obs.MetricShardMapChunksMoved)
	if snap <= 0 {
		t.Fatalf("chunks-moved counter %v after a join", snap)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 240)
}

// metricValue reads one unlabeled series out of a registry via the
// Prometheus text exposition (0 when the series is absent).
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return metricSum(t, sb.String(), name, "")
}

func TestRemoveOwnerHandsOffBeforeShutdown(t *testing.T) {
	c := bootTestCluster(t, 3, 150, nil)
	victim := c.OwnerIDs()[2]
	if err := c.RemoveOwner(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d after remove, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 150 {
		t.Fatalf("%d samples resident after remove, want 150", total)
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 150)

	if err := c.RemoveOwner("owner-99"); err == nil {
		t.Fatal("removing an unknown owner succeeded")
	}
}

func TestLiveReshardUnderLoadZeroHardErrors(t *testing.T) {
	// The acceptance drill: a 2-owner cluster rebalances to 3 while
	// clients hammer it. Every load must succeed — stale-generation
	// refreshes and failovers are fine, hard errors are not.
	const n = 300
	c := bootTestCluster(t, 2, n, nil)
	g, prof := countedGroup(t, c)
	loadAll(t, g, n) // warm bootstrap

	var hardErrs atomic.Int64
	var loads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := make([]int64, 8)
				for i := range ids {
					ids[i] = rng.Int63n(n)
				}
				gs, _, err := loadGraphs(g, ids)
				if err != nil {
					hardErrs.Add(1)
					continue
				}
				for i := range gs {
					if gs[i] == nil || gs[i].ID != ids[i] {
						hardErrs.Add(1)
					}
				}
				loads.Add(1)
			}
		}(w)
	}
	// Let traffic flow, rebalance live, keep traffic flowing after.
	time.Sleep(50 * time.Millisecond)
	if err := c.Reshard(3); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if he := hardErrs.Load(); he != 0 {
		t.Fatalf("%d hard errors during live reshard (loads=%d)", he, loads.Load())
	}
	if loads.Load() == 0 {
		t.Fatal("no loads completed")
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after reshard = %d, want 2", got)
	}
	if got := c.OwnerCount(); got != 3 {
		t.Fatalf("owner count %d, want 3", got)
	}
	// The group refreshed to the published generation: it adopted one
	// newer map, and generation 2 is the only one.
	loadAll(t, g, n)
	if got := prof.Counter(transport.CounterStaleRefreshes); got != 1 {
		t.Fatalf("client adopted %d newer maps after reshard traffic, want 1: generation 2", got)
	}
}

func TestCrashOwnerHealsFromDurableSource(t *testing.T) {
	// Width-1 cluster: a crash orphans the dead owner's shards (no
	// surviving replica), so healing must re-read them from the backing
	// source. Nothing is lost and clients keep loading.
	c := bootTestCluster(t, 3, 150, nil)
	g, prof := countedGroup(t, c)
	loadAll(t, g, 150)

	victim := c.OwnerIDs()[1]
	if err := c.CrashOwner(victim); err != nil {
		t.Fatal(err)
	}
	if got := c.OwnerCount(); got != 2 {
		t.Fatalf("owner count %d after crash, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 150 {
		t.Fatalf("%d samples resident after crash heal, want 150", total)
	}
	loadAll(t, g, 150)
	if got := prof.Counter(transport.CounterStaleRefreshes); got != 1 {
		t.Fatalf("client adopted %d newer maps after crash heal, want 1: generation 2", got)
	}
}

func TestCrashWithReplicasPromotesWithoutSourceReads(t *testing.T) {
	// Width-2: every shard has a surviving replica, so a crash heals by
	// promotion plus replica top-up pulls — the durable source is never
	// needed for the promoted primaries.
	src := &countingSource{SampleSource: datasets.HomoLumo(datasets.Config{NumGraphs: 120})}
	c := bootTestCluster(t, 3, 120, func(cfg *Config) {
		cfg.Source = src
		cfg.Width = 2
	})
	g := elasticGroup(t, c)
	loadAll(t, g, 120)
	preloadReads := src.reads.Load()

	victim := c.OwnerIDs()[0]
	if err := c.CrashOwner(victim); err != nil {
		t.Fatal(err)
	}
	loadAll(t, g, 120)
	// Top-up pulls come from surviving replicas over the wire; the
	// source sees no new reads.
	if got := src.reads.Load(); got != preloadReads {
		t.Fatalf("crash heal read %d samples from the durable source, want 0", got-preloadReads)
	}
}

// countingSource counts AppendSample calls through to the wrapped source.
type countingSource struct {
	SampleSource
	reads atomic.Int64
}

func (s *countingSource) AppendSample(buf []byte, id int64) ([]byte, error) {
	s.reads.Add(1)
	return s.SampleSource.AppendSample(buf, id)
}

func TestMidMigrationCrashDegradesToRetryAndSource(t *testing.T) {
	// Chaos drill: every owner listener resets connections now and then,
	// so migration pulls fail mid-stream and must retry or fall back to
	// the durable source — the transition still converges and clients
	// still see every sample.
	c := bootTestCluster(t, 2, 200, func(cfg *Config) {
		cfg.Chaos = &faultnet.Scenario{Seed: 7, ResetProb: 0.02}
	})
	if _, err := c.AddOwner(); err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after chaotic join = %d, want 2", got)
	}
	total := 0
	for _, id := range c.OwnerIDs() {
		total += c.Owner(id).Resident()
	}
	if total != 200 {
		t.Fatalf("%d samples resident after chaotic migration, want 200", total)
	}
	// Resets are retry-recoverable, not hard errors: a patient client (a
	// deeper retry budget, and small batches so each response risks few
	// reset draws) still sees every sample through the chaotic fabric.
	pol := fastNet()
	pol.MaxAttempts = 8
	g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
		Client:   transport.ClientOptions{Policy: pol},
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	loadAll(t, g, 200)
}

// TestMigrationPullsCountRetries: the migration pull clients count their
// resilience events in the cluster registry, as the other migration
// instruments do, so a reshard over a faulty fabric shows its retries in
// Registry() with no debug address.
func TestMigrationPullsCountRetries(t *testing.T) {
	c := bootTestCluster(t, 2, 200, func(cfg *Config) {
		cfg.Chaos = &faultnet.Scenario{Seed: 7, ResetProb: 0.05}
	})
	if err := c.Reshard(3); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, p := range c.Registry().Snapshot().Counters {
		if p.Name == obs.MetricEvents && len(p.Labels) == 1 {
			counts[p.Labels[0].Value] = p.Value
		}
	}
	if counts[transport.CounterRetries] == 0 {
		t.Fatalf("a reshard over a resetting fabric counted no %s: %v", transport.CounterRetries, counts)
	}
}

func TestClusterGenerationIsMonotonic(t *testing.T) {
	c := bootTestCluster(t, 2, 120, nil)
	want := uint64(1)
	for _, target := range []int{3, 4, 2, 3} {
		if err := c.Reshard(target); err != nil {
			t.Fatalf("reshard to %d: %v", target, err)
		}
		if c.Generation() <= want {
			t.Fatalf("generation %d did not advance past %d on reshard to %d", c.Generation(), want, target)
		}
		want = c.Generation()
	}
	g := elasticGroup(t, c)
	loadAll(t, g, 120)
}

// TestPullClientsFollowOwners is the pull-client leak regression: the
// migration clients are cached by the owner they pull from, so an owner
// that leaves takes its client with it. They used to be cached by address
// and dropped by owner ID, so every shrink leaked one connection to a dead
// server for a later owner on the same port to inherit.
func TestPullClientsFollowOwners(t *testing.T) {
	c := bootTestCluster(t, 2, 120, nil)
	g := elasticGroup(t, c)
	cycle := func() {
		t.Helper()
		for _, n := range []int{3, 2} {
			if err := c.Reshard(n); err != nil {
				t.Fatal(err)
			}
		}
		loadAll(t, g, 120)
	}
	// The first cycle dials every connection the steady state keeps: the
	// survivors' pull clients and the group's peer clients.
	cycle()
	settled := func() int { runtime.GC(); return runtime.NumGoroutine() }
	base := settled()
	for i := 0; i < 10; i++ {
		cycle()
	}
	c.mu.Lock()
	pulls, owners := len(c.pulls), len(c.owners)
	for id := range c.pulls {
		if c.owners[id] == nil {
			t.Errorf("a pull client outlived its owner %s", id)
		}
	}
	c.mu.Unlock()
	if pulls > owners {
		t.Fatalf("%d pull clients cached for %d live owners", pulls, owners)
	}
	// Every departed owner's handler goroutines end once its clients hang
	// up; a leaked client would pin one per cycle.
	waitFor(t, "goroutines to return to the baseline", func() bool { return settled() <= base })
}

// failingSource fails reads of the ids in [lo, hi) once armed — a durable
// source that lost a range — and calls failed, when set, as it does.
type failingSource struct {
	SampleSource
	lo, hi int64
	armed  atomic.Bool
	failed func()
}

func (s *failingSource) AppendSample(buf []byte, id int64) ([]byte, error) {
	if s.armed.Load() && id >= s.lo && id < s.hi {
		if s.failed != nil {
			s.failed()
		}
		return buf, fmt.Errorf("sample %d is gone", id)
	}
	return s.SampleSource.AppendSample(buf, id)
}

// TestFailedJoinRollsBack: a join whose migration fails must leave the
// cluster exactly as it was. One owner has crashed and could not be
// healed — the durable source lost its range too — so the next join has
// shards to place with no live holder and a source that errors: AddOwner
// fails, and the owner it started is closed and forgotten rather than left
// listening and owning nothing.
func TestFailedJoinRollsBack(t *testing.T) {
	src := &failingSource{SampleSource: datasets.HomoLumo(datasets.Config{NumGraphs: 120}), lo: 60, hi: 120}
	c := bootTestCluster(t, 2, 120, func(cfg *Config) { cfg.Source = src })
	src.armed.Store(true)
	if err := c.CrashOwner(c.OwnerIDs()[1]); err == nil {
		t.Fatal("healing a crash with the range gone from the source succeeded")
	}
	gen, addrs, owners := c.Generation(), c.Addrs(), c.OwnerCount()

	// The source is read on the joining goroutine, inside the cluster lock:
	// the newest owner is the one being joined, and this is the only moment
	// its address can be learnt.
	var joining string
	src.failed = func() { joining = c.owners[c.order[len(c.order)-1]].addr }
	if id, err := c.AddOwner(); err == nil {
		t.Fatalf("AddOwner = %s, want the migration's error", id)
	}
	if c.Generation() != gen || c.OwnerCount() != owners || fmt.Sprint(c.Addrs()) != fmt.Sprint(addrs) {
		t.Fatalf("after a failed join: generation %d, %d owners at %v; want %d, %d, %v",
			c.Generation(), c.OwnerCount(), c.Addrs(), gen, owners, addrs)
	}
	if conn, err := net.Dial("tcp", joining); err == nil {
		conn.Close()
		t.Fatalf("the rolled-back owner still listens on %s", joining)
	}

	// Nothing of the failed join is in the way of the next ones.
	src.armed.Store(false)
	if err := c.CrashOwner(c.OwnerIDs()[1]); err != nil {
		t.Fatalf("healing once the source is back: %v", err)
	}
	if err := c.Reshard(3); err != nil {
		t.Fatalf("resharding after the rolled-back join: %v", err)
	}
	loadAll(t, elasticGroup(t, c), 120)
}

// metricSum adds up the series of one metric in a Prometheus text scrape
// whose label set contains label (e.g. `tenant="polite"`; "" takes all).
func metricSum(t *testing.T, scrape, name, label string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") || !strings.Contains(line, label) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestHostileTenantThroughReshard drives the two halves of the feature
// matrix together: admission control on a cluster that reshards. A polite
// tenant's closed loop of single loads and a hostile tenant's fixed-rate
// batch flood at several times its quota run against a 2-owner cluster
// while it grows to 3 owners, then through Close. The polite tenant never
// fails and is never shed, every byte either tenant receives matches the
// source, the sheds all land on the hostile tenant, the migration's pulls
// are admitted by the same front end under the reserved tenant, and
// /readyz says 503 exactly while the cluster migrates or drains.
func TestHostileTenantThroughReshard(t *testing.T) {
	const (
		n           = 3000
		hostileRate = 50 // the hostile tenant's quota, requests/s
	)
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	want := make([][]byte, n)
	for id := range want {
		g, err := ds.Sample(int64(id))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = g.Encode()
	}
	c, err := BootCluster(Config{
		Source: ds, Owners: 2, Net: fastNet(), DebugAddr: "127.0.0.1:0",
		// The hostile burst is well under the queue depth, so the class
		// queue never fills and nothing but the rate limit sheds.
		Tenants:    fmt.Sprintf("polite;hostile:rate=%d,burst=4", hostileRate),
		QueueDepth: 16, FrontendWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := "http://" + c.DebugAddr()

	group := func(tenant string, pol transport.RetryPolicy) *transport.Group {
		g, err := transport.NewElasticGroup(c.Addrs(), transport.GroupOptions{
			Client: transport.ClientOptions{Policy: pol, Tenant: tenant},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	// load issues one Load and checks every returned sample against the
	// source, byte for byte.
	var wrongBytes atomic.Int64
	load := func(g *transport.Group, ids []int64) error {
		lzs, _, err := g.LoadLazy(ids)
		if err != nil {
			return err
		}
		for i, lz := range lzs {
			if !bytes.Equal(lz.AppendTo(nil), want[ids[i]]) {
				wrongBytes.Add(1)
			}
			lz.Release()
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var politeLoads, politeFails, hostileSent, hostileShed atomic.Int64
	for w := 0; w < 2; w++ {
		g := group("polite", fastNet())
		rng := rand.New(rand.NewSource(int64(w) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := load(g, []int64{rng.Int63n(n)}); err != nil {
					politeFails.Add(1)
					t.Errorf("polite load: %v", err)
				}
				politeLoads.Add(1)
			}
		}()
	}
	// The flood never retries, so a shed request returns at once and the
	// ticker, not the server, sets the pace.
	noRetry := fastNet()
	noRetry.MaxAttempts = 1
	flood := group("hostile", noRetry)
	floodStart := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			ids := make([]int64, 8)
			for i := range ids {
				ids[i] = rng.Int63n(n)
			}
			hostileSent.Add(1)
			if err := load(flood, ids); errors.Is(err, transport.ErrOverloaded) {
				hostileShed.Add(1)
			}
		}
	}()
	// A poller watches readiness for the whole run: not ready must mean
	// migrating, and nothing else, until Close.
	var sawMigrating atomic.Int64
	pollStop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				t.Errorf("/readyz: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
			case resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "migrating"):
				sawMigrating.Add(1)
			default:
				t.Errorf("/readyz = %d %q outside a migration", resp.StatusCode, body)
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	if err := c.Reshard(3); err != nil {
		t.Fatal(err)
	}
	if gen := c.Generation(); gen != 2 {
		t.Fatalf("generation after the reshard = %d, want 2", gen)
	}
	// A migration of this size takes several poll periods, but nothing
	// forces the poller onto the processor during one: reshard again, as
	// often as it takes, until the poller has caught one.
	for i := 0; sawMigrating.Load() == 0 && i < 20; i++ {
		if err := c.Reshard(2 + i%2); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	offered := float64(hostileSent.Load()) / time.Since(floodStart).Seconds()
	close(pollStop)
	<-polled

	t.Logf("polite %d loads; hostile %.0f/s offered, %d shed of %d; generation %d; /readyz said migrating %d times",
		politeLoads.Load(), offered, hostileShed.Load(), hostileSent.Load(), c.Generation(), sawMigrating.Load())
	if sawMigrating.Load() == 0 {
		t.Error("/readyz never answered 503 migrating during a reshard")
	}
	if politeLoads.Load() == 0 || politeFails.Load() != 0 {
		t.Errorf("polite tenant: %d loads, %d failed; want some and none", politeLoads.Load(), politeFails.Load())
	}
	if wrongBytes.Load() != 0 {
		t.Errorf("%d samples came back with the wrong bytes", wrongBytes.Load())
	}
	if offered < 4*hostileRate {
		t.Errorf("the flood offered %.0f requests/s, under 4x the %d/s quota", offered, hostileRate)
	}
	if hostileShed.Load() == 0 {
		t.Error("the hostile tenant was never shed")
	}
	_, scrape := httpGet(t, base+"/metrics")
	if v := metricSum(t, scrape, obs.MetricTenantShed, `tenant="polite"`); v != 0 {
		t.Errorf("polite tenant shed %v times", v)
	}
	if v := metricSum(t, scrape, obs.MetricTenantShed, `tenant="`+migrationTenant+`"`); v != 0 {
		t.Errorf("migration tenant shed %v times", v)
	}
	if v := metricSum(t, scrape, obs.MetricTenantShed, `tenant="hostile"`); v == 0 {
		t.Error("no shed counted on the hostile tenant")
	}
	if v := metricSum(t, scrape, obs.MetricTenantRequests, `tenant="`+migrationTenant+`"`); v == 0 {
		t.Error("no migration pull was admitted under the migration tenant")
	}

	// Close, with one request held in flight at the front end so the drain
	// lasts long enough to look at: /readyz says draining, /metrics still
	// answers with the gauge up, every owner refuses new work on an open
	// listener. Once the request finishes Close returns and the debug
	// endpoint, closed last, is gone.
	gate, err := c.fe.AdmitConn("test")
	if err != nil {
		t.Fatal(err)
	}
	release, err := gate.Admit(transport.ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	waitFor(t, "the drain to start", func() bool {
		st, _ := c.FrontendStats()
		return st.Draining
	})
	if code, body := httpGet(t, base+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz during Close = %d %q, want 503 draining", code, body)
	}
	if code, body := httpGet(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "ddstore_serve_draining 1") {
		t.Errorf("/metrics during Close = %d, draining gauge not 1", code)
	}
	for _, addr := range c.Addrs() {
		cl, err := transport.DialOptions(addr, transport.ClientOptions{Policy: noRetry, Tenant: "polite"})
		if err == nil {
			_, err = cl.GetRaw(0)
			cl.Close()
		}
		if !errors.Is(err, transport.ErrOverloaded) {
			t.Errorf("get from %s during Close: %v, want ErrOverloaded", addr, err)
		}
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a request in flight", err)
	default:
	}
	release(0)
	gate.Close()
	if err := <-closed; err != nil {
		t.Errorf("Close = %v", err)
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("the debug endpoint still answers after Close returned")
	}
}

// TestLazyClusterReshards runs the lazy serving mode and resharding
// together: with CacheBytes set a migration moves ownership only, the
// gaining owner faults its samples in from the durable source on first
// request, every id still reads byte-equal, and the cluster-wide budget
// holds throughout.
func TestLazyClusterReshards(t *testing.T) {
	const n = 240
	src := &countingSource{SampleSource: datasets.HomoLumo(datasets.Config{NumGraphs: n})}
	var total int64
	want := make([][]byte, n)
	for id := range want {
		raw, err := src.SampleSource.AppendSample(nil, int64(id))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = raw
		total += int64(len(want[id]))
	}
	budget := total / 4
	c := bootTestCluster(t, 2, n, func(cfg *Config) {
		cfg.Source = src
		cfg.CacheBytes = budget
	})
	if src.reads.Load() != 0 {
		t.Fatalf("a lazy boot read %d samples from the source", src.reads.Load())
	}
	g := elasticGroup(t, c)
	readAll := func(ids []int64) {
		t.Helper()
		for _, id := range ids {
			lzs, _, err := g.LoadLazy([]int64{id})
			if err != nil {
				t.Fatalf("load %d: %v", id, err)
			}
			if !bytes.Equal(lzs[0].AppendTo(nil), want[id]) {
				t.Fatalf("sample %d came back with the wrong bytes", id)
			}
			lzs[0].Release()
			if st, _ := c.CacheStats(); st.Bytes > budget {
				t.Fatalf("cache holds %d bytes, over the %d budget", st.Bytes, budget)
			}
		}
	}
	all := make([]int64, n)
	for i := range all {
		all[i] = int64(i)
	}
	readAll(all)

	if err := c.Reshard(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 2 {
		t.Fatalf("generation after the reshard = %d, want 2", got)
	}
	gainer := c.OwnerIDs()[2]
	if r := c.Owner(gainer).Resident(); r != 0 {
		t.Fatalf("the lazy gainer holds %d samples of its own, want 0 (the cache is the cluster's)", r)
	}
	// What the gainer now owns, read cold: every sample is a miss it
	// faults in itself. Reading the rest first, several times what the
	// budget holds, evicts every one of them.
	c.mu.Lock()
	var gained, rest []int64
	mi := c.cur.MemberIndex(gainer)
	for id := int64(0); id < n; id++ {
		if c.cur.OwnedBy(id, mi) {
			gained = append(gained, id)
		} else {
			rest = append(rest, id)
		}
	}
	c.mu.Unlock()
	if len(gained) == 0 {
		t.Fatal("the reshard moved nothing onto the new owner")
	}
	readAll(rest)
	before, _ := c.CacheStats()
	reads := src.reads.Load()
	readAll(gained)
	after, _ := c.CacheStats()
	if got := after.Misses - before.Misses; got != int64(len(gained)) {
		t.Fatalf("%d cache misses reading the gainer's %d samples cold", got, len(gained))
	}
	if got := src.reads.Load() - reads; got != int64(len(gained)) {
		t.Fatalf("the gainer faulted in %d samples from the source, want %d", got, len(gained))
	}
	if v := metricValue(t, c.Registry(), obs.MetricMigrationBytes+"_sum"); v != 0 {
		t.Fatalf("a lazy migration pulled %v bytes, want 0", v)
	}
	readAll(all)
}
