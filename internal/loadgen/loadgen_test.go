package loadgen

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/datasets"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

// waitGoroutines retries until the process is back to at most want
// goroutines — servers, workers, and HTTP connections need a few
// scheduler rounds to unwind after Close.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, want <= %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkOrdering asserts the percentile invariants of one phase.
func checkOrdering(t *testing.T, ph PhaseResult) {
	t.Helper()
	if ph.P50ms <= 0 {
		t.Errorf("%s: p50 %.4f ms, want > 0", ph.Name, ph.P50ms)
	}
	if !(ph.P50ms <= ph.P95ms && ph.P95ms <= ph.P99ms && ph.P99ms <= ph.MaxMs) {
		t.Errorf("%s: percentile ordering violated: p50=%.4f p95=%.4f p99=%.4f max=%.4f",
			ph.Name, ph.P50ms, ph.P95ms, ph.P99ms, ph.MaxMs)
	}
}

// TestEndToEndLoopback is the headline e2e: boot ddstore-serve in-process,
// run the quick sweep (closed cold, closed warm, open loop) against it
// over real TCP, and check the harness's accounting — deterministic
// request counts, non-zero achieved QPS, ordered percentiles, a server
// metrics scrape per phase, warm-phase cache hits, and zero leaked
// goroutines after shutdown.
func TestEndToEndLoopback(t *testing.T) {
	before := runtime.NumGoroutine()

	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 300})
	inst, err := serveboot.Boot(serveboot.Config{
		Source: ds, Lo: 0, Hi: 300,
		CacheBytes: 8 << 20, WriteTimeout: 5 * time.Second,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Addrs:      []string{inst.Addr()},
		Seed:       42,
		Phases:     Sweep(SweepOptions{Quick: true, Clients: 4, QPS: 200, Mix: 0.25}),
		MetricsURL: "http://" + inst.DebugAddr() + "/metrics",
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("%d phases, want 3 (closed-cold, closed-warm, open)", len(res.Phases))
	}

	for _, ph := range res.Phases {
		if ph.Errors != 0 {
			t.Errorf("%s: %d errors against a healthy server", ph.Name, ph.Errors)
		}
		if ph.AchievedQPS <= 0 {
			t.Errorf("%s: achieved QPS %.2f, want > 0", ph.Name, ph.AchievedQPS)
		}
		if ph.Samples <= 0 || ph.Bytes <= 0 {
			t.Errorf("%s: samples=%d bytes=%d, want > 0", ph.Name, ph.Samples, ph.Bytes)
		}
		checkOrdering(t, ph)
		if len(ph.Server) == 0 {
			t.Errorf("%s: no server metrics scraped", ph.Name)
		}
	}

	cold, warm, open := res.Phases[0], res.Phases[1], res.Phases[2]
	// Deterministic closed-loop quick mode: exactly QuickClosedRequests
	// requests per closed phase, all accounted for.
	for _, ph := range []PhaseResult{cold, warm} {
		if ph.Mode != string(Closed) {
			t.Errorf("%s: mode %q, want closed", ph.Name, ph.Mode)
		}
		if ph.Requests != QuickClosedRequests {
			t.Errorf("%s: %d requests, want exactly %d", ph.Name, ph.Requests, QuickClosedRequests)
		}
	}
	if open.Mode != string(Open) {
		t.Errorf("%s: mode %q, want open", open.Name, open.Mode)
	}
	if open.TargetQPS <= 0 {
		t.Errorf("open phase lost its target QPS")
	}

	// The warm phase rides the cold phase's cache fill: the server must
	// report cache hits by the time the warm scrape happens.
	hits := warm.Server[`ddstore_events_total{event="cache-hits"}`]
	if hits <= 0 {
		t.Errorf("warm-phase scrape shows no cache hits (scrape: %v)", warm.Server)
	}
	if got := warm.Server[`ddstore_serve_requests_total{op="getbatch"}`]; got <= 0 {
		t.Errorf("warm-phase scrape shows no served requests")
	}

	// Client-pool reuse across phases: 3 phases × 4 workers against one
	// server must not cost 12 dials.
	if res.Pool.Dials == 0 || res.Pool.Reuses == 0 {
		t.Errorf("pool stats %+v: want both dials and reuses > 0", res.Pool)
	}
	if res.Pool.Dials > 5 { // 4 workers + the shard map probe
		t.Errorf("pool dialed %d times for 4 workers, connections are not being reused", res.Pool.Dials)
	}

	// Report and artifact render without error and carry every phase.
	rep := res.Report()
	if len(rep.Rows) != 3 {
		t.Errorf("report has %d rows, want 3", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "closed-cold-c4") {
		t.Errorf("report table missing phase name:\n%s", rep.String())
	}
	art := res.Artifact("e2e test")
	if art.Schema != ArtifactSchema || art.Kind != "loadgen" || len(art.Phases) != 3 {
		t.Errorf("artifact schema=%d kind=%q phases=%d", art.Schema, art.Kind, len(art.Phases))
	}
	if _, err := art.JSON(); err != nil {
		t.Errorf("artifact JSON: %v", err)
	}

	inst.Close()
	waitGoroutines(t, before)
}

// TestRunDrainsOnCancel cancels mid-phase and checks the harness drains
// cleanly: Run returns promptly with context.Canceled, the partial result
// is usable, and no worker or dispatcher goroutines leak.
func TestRunDrainsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 100})
	inst, err := serveboot.Boot(serveboot.Config{Source: ds, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, Config{
		Addrs: []string{inst.Addr()},
		Phases: []Phase{
			{Name: "open-long", Mode: Open, Workers: 3, TargetQPS: 500, Duration: time.Hour},
			{Name: "never-runs", Mode: Closed, Workers: 2, MaxRequests: 10},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to drain", elapsed)
	}
	if res == nil {
		t.Fatal("no partial result on cancel")
	}
	// The cancelled phase still reports what it measured before the cut.
	if len(res.Phases) != 1 {
		t.Fatalf("%d phases in partial result, want 1 (the cancelled one)", len(res.Phases))
	}
	if res.Phases[0].Requests == 0 {
		t.Error("cancelled phase recorded no requests in 150ms at 500 QPS")
	}

	inst.Close()
	waitGoroutines(t, before)
}

// TestRunValidation rejects malformed configs up front.
func TestRunValidation(t *testing.T) {
	valid := Phase{Name: "ok", Mode: Closed, Workers: 1, MaxRequests: 1}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no addrs", Config{Phases: []Phase{valid}}},
		{"no phases", Config{Addrs: []string{"x"}}},
		{"open without qps", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: Open, Workers: 1, Duration: time.Second}}}},
		{"open without duration", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: Open, Workers: 1, TargetQPS: 10}}}},
		{"closed without bound", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: Closed, Workers: 1}}}},
		{"zero workers", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: Closed, MaxRequests: 1}}}},
		{"bad mix", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: Closed, Workers: 1, MaxRequests: 1, Mix: 1.5}}}},
		{"bad mode", Config{Addrs: []string{"x"}, Phases: []Phase{{Mode: "burst", Workers: 1}}}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.cfg); err == nil {
			t.Errorf("%s: Run accepted the config", tc.name)
		}
	}
}

// TestMultiServerSpread drives two servers covering disjoint ranges and
// checks both see traffic — the cluster path of the harness.
func TestMultiServerSpread(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	a, err := serveboot.Boot(serveboot.Config{Source: ds, Lo: 0, Hi: 100, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := serveboot.Boot(serveboot.Config{Source: ds, Lo: 100, Hi: 200, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	res, err := Run(context.Background(), Config{
		Addrs: []string{a.Addr(), b.Addr()},
		Seed:  7,
		Phases: []Phase{
			{Name: "closed", Mode: Closed, Workers: 4, MaxRequests: 200, Mix: 0.5, BatchSize: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if ph.Requests != 200 || ph.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 200/0", ph.Requests, ph.Errors)
	}
	for name, url := range map[string]string{"a": "http://" + a.DebugAddr() + "/metrics", "b": "http://" + b.DebugAddr() + "/metrics"} {
		m, err := ScrapeMetrics(url)
		if err != nil {
			t.Fatalf("scrape %s: %v", name, err)
		}
		if m[`ddstore_serve_requests_total{op="getbatch"}`] <= 0 {
			t.Errorf("server %s saw no traffic", name)
		}
	}
}

// TestPoolReuseAcrossRuns shares one pool-backed config across two runs
// implicitly via transport.ClientPool inside Run; here we verify the
// pool primitive itself against a live server.
func TestPoolReuseAcrossRuns(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
	inst, err := serveboot.Boot(serveboot.Config{Source: ds, Lo: 0, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	pool := transport.NewClientPool(transport.ClientOptions{})
	defer pool.Close()
	c1, err := pool.Get(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(c1)
	c2, err := pool.Get(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("pool dialed a fresh client with one idle")
	}
	if _, err := c2.GetRaw(3); err != nil {
		t.Fatalf("pooled client get: %v", err)
	}
	pool.Put(c2)
	if st := pool.Stats(); st.Dials != 1 || st.Reuses != 1 {
		t.Errorf("pool stats %+v, want 1 dial / 1 reuse", st)
	}
}

// TestUntracedBatchPhaseRecyclesBuffers pins the memory behaviour of the
// untraced batch path: it rides the same pooled call as the traced one and
// releases every response buffer, so over a warm phase the arena keeps
// handing buffers out (gets rise) without allocating new ones (news stop
// growing) — what the trace-smoke overhead gate needs to compare like with
// like. Before the paths were unified the untraced path never released, so
// every get was a new.
func TestUntracedBatchPhaseRecyclesBuffers(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 100})
	inst, err := serveboot.Boot(serveboot.Config{Source: ds, Lo: 0, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const measured = 400
	var gets0, news0 int64
	batches := func(name string, n int64) Phase {
		return Phase{Name: name, Mode: Closed, Workers: 1, MaxRequests: n, Mix: 1, BatchSize: 8}
	}
	warm := batches("measured", measured)
	warm.Before = func() { gets0, news0, _ = bufarena.Stats() }
	res, err := Run(context.Background(), Config{
		Addrs:  []string{inst.Addr()},
		Seed:   7,
		Phases: []Phase{batches("warm-up", 100), warm},
	})
	if err != nil {
		t.Fatal(err)
	}
	gets1, news1, _ := bufarena.Stats()
	if ph := res.Phases[1]; ph.Errors != 0 || ph.Requests != measured {
		t.Fatalf("measured phase: %d requests, %d errors", ph.Requests, ph.Errors)
	}
	gets, news := gets1-gets0, news1-news0
	if gets < measured {
		t.Fatalf("arena gets rose by %d over %d batch requests", gets, measured)
	}
	// A GC cycle may empty the pool mid-phase, and under the race detector
	// sync.Pool drops a quarter of what it is given, so some news are
	// tolerated; an unreleased path shows one per get.
	if news*2 > gets {
		t.Errorf("arena news rose by %d over %d gets: the untraced batch path is not recycling its buffers", news, gets)
	}
}

// TestIsolationSweep is the isolation proof by count: with the serving
// front end enabled, hostile tenant beta offers 4x its quota while polite
// tenant alpha stays inside its own budget — two concurrent runs, one per
// tenant, each with its own connections and hello identity. Alpha must ride
// through untouched (zero sheds, zero errors) while beta's excess is shed
// with the overloaded status and counted in both the result and the
// server's per-tenant metrics. What alpha's tail latency does meanwhile is
// a number, not a count: the ledger's overload_two_tenant workload
// measures it with pairs and bounds.
func TestIsolationSweep(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 256})
	inst, err := serveboot.Boot(serveboot.Config{
		Source: ds, Lo: 0, Hi: 256, WriteTimeout: time.Second,
		DebugAddr: "127.0.0.1:0",
		Tenants:   "alpha:rate=2000,burst=200;beta:rate=100,burst=20",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	drive := func(tenant string, qps float64, seed uint64) (PhaseResult, error) {
		res, err := Run(context.Background(), Config{
			Addrs:      []string{inst.Addr()},
			Seed:       seed,
			Policy:     transport.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
			MetricsURL: "http://" + inst.DebugAddr() + "/metrics",
			Tenant:     tenant,
			Phases: []Phase{{
				Name: tenant, Mode: Open, Workers: 4,
				TargetQPS: qps, Duration: 1200 * time.Millisecond,
			}},
		})
		if err != nil {
			return PhaseResult{}, err
		}
		return res.Phases[0], nil
	}
	var polite, hostile PhaseResult
	var politeErr, hostileErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); polite, politeErr = drive("alpha", 150, 1) }()
	go func() { defer wg.Done(); hostile, hostileErr = drive("beta", 400, 2) }() // 4x beta's 100/s quota
	wg.Wait()
	if politeErr != nil || hostileErr != nil {
		t.Fatalf("runs failed: alpha %v, beta %v", politeErr, hostileErr)
	}

	// The polite tenant is untouched by the hostile one.
	if polite.Errors != 0 || polite.Shed != 0 {
		t.Errorf("alpha inside its quota saw %d errors and %d sheds", polite.Errors, polite.Shed)
	}
	if polite.Requests == 0 {
		t.Error("alpha issued no requests")
	}

	// The hostile tenant's excess was shed, not served and not errored.
	if hostile.Shed == 0 {
		t.Error("beta at 4x quota recorded no sheds")
	}
	if hostile.Errors != 0 {
		t.Errorf("beta saw %d hard errors; overload must shed, not break", hostile.Errors)
	}
	served := hostile.Requests - hostile.Shed - hostile.Errors
	if perSec := float64(served) / hostile.DurationS; perSec > 250 {
		t.Errorf("beta got %.0f successful requests/s, quota is 100/s", perSec)
	}

	// The server's per-tenant metrics counted beta's sheds.
	var counted float64
	for name, v := range hostile.Server {
		if strings.Contains(name, "ddstore_tenant_shed_total") && strings.Contains(name, "beta") {
			counted += v
		}
	}
	if counted == 0 {
		t.Error("/metrics shows no ddstore_tenant_shed_total for beta")
	}
}
