package serveboot

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/transport"
)

// getGraph fetches one sample over the raw request path and decodes it.
func getGraph(cl *transport.Client, id int64) (*graph.Graph, error) {
	raw, err := cl.GetRaw(id)
	if err != nil {
		return nil, err
	}
	return graph.Decode(raw)
}

// TestLazyChunkServes drives the CacheBytes serving mode end to end: a
// lazy chunk behind a real TCP server answers repeated Gets correctly, the
// second pass over the ids is all cache hits, and ids outside the served
// range are rejected without touching the backing source.
func TestLazyChunkServes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 100})
	inst, err := Boot(Config{
		Source: ds, Lo: 10, Hi: 40,
		CacheBytes: 1 << 20, WriteTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for pass := 0; pass < 2; pass++ {
		for id := int64(10); id < 40; id++ {
			g, err := getGraph(cl, id)
			if err != nil {
				t.Fatalf("pass %d get %d: %v", pass, id, err)
			}
			if g.ID != id {
				t.Fatalf("pass %d get %d returned sample %d", pass, id, g.ID)
			}
		}
	}
	st, ok := inst.CacheStats()
	if !ok {
		t.Fatal("lazy mode reported no cache")
	}
	if st.Misses != 30 {
		t.Fatalf("%d cache misses over two passes, want 30 (one per id)", st.Misses)
	}
	if st.Hits != 30 {
		t.Fatalf("%d cache hits on the repeat pass, want 30", st.Hits)
	}

	for _, id := range []int64{9, 40} {
		if _, err := cl.GetRaw(id); err == nil {
			t.Fatalf("get %d outside the served range succeeded", id)
		}
	}
	// A batch holding such an id is a bad request too, not a moved chunk:
	// a static client is never handed a shard map to retry under.
	if _, err := cl.GetBatchRaw([]int64{15, 40}); err == nil || errors.Is(err, transport.ErrStaleGeneration) {
		t.Fatalf("batch with an id outside the served range: %v, want a plain error", err)
	}
	if after, _ := inst.CacheStats(); after.Misses != st.Misses {
		t.Fatal("out-of-range gets reached the cache")
	}

}

// TestBootRejectsBadConfig covers the validation paths: no source, an
// unknown synthetic dataset, and an inverted or oversized range.
func TestBootRejectsBadConfig(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no source", Config{Lo: 0, Hi: 10}},
		{"unknown dataset", Config{Dataset: "nope", N: 10, Hi: -1}},
		{"inverted range", Config{Source: ds, Lo: 5, Hi: 5}},
		{"range past end", Config{Source: ds, Lo: 0, Hi: 11}},
		{"negative lo", Config{Source: ds, Lo: -1, Hi: 5}},
		{"bad tenant spec", Config{Source: ds, Lo: 0, Hi: 10, Tenants: "a:turbo=9"}},
		{"dup tenant", Config{Source: ds, Lo: 0, Hi: 10, Tenants: "a:rate=1;a:rate=2"}},
	}
	for _, tc := range cases {
		if inst, err := Boot(tc.cfg); err == nil {
			inst.Close()
			t.Errorf("%s: Boot succeeded", tc.name)
		}
	}
}

// TestBootPreloadMode exercises the eager-preload path (no cache) and the
// default ephemeral loopback address.
func TestBootPreloadMode(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	inst, err := Boot(Config{Source: ds, Lo: 0, Hi: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if lo, hi := inst.Range(); lo != 0 || hi != 20 {
		t.Fatalf("Range() = [%d,%d), want [0,20)", lo, hi)
	}
	if _, ok := inst.CacheStats(); ok {
		t.Fatal("preload mode reported a cache")
	}
	if inst.DebugAddr() != "" {
		t.Fatal("debug endpoint reported without DebugAddr")
	}
	cl, err := transport.Dial(inst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := cl.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := m.Range(); m.Gen != 1 || lo != 0 || hi != 20 {
		t.Fatalf("ShardMap() = generation %d over [%d,%d), want 1 over [0,20)", m.Gen, lo, hi)
	}
	if g, err := getGraph(cl, 7); err != nil || g.ID != 7 {
		t.Fatalf("Get(7) = %v, %v", g, err)
	}
}

// TestGroupReplicasOverTwoHalves is the static two-server shape: one
// replica striped over two booted halves, each lazy behind its own cache.
// The group reads each half's range from the shard map it serves and
// freezes the two into a two-shard generation-1 map, so every id is
// fetched from the half that holds it, and every sample is byte-identical
// to the source.
func TestGroupReplicasOverTwoHalves(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 60})
	var addrs []string
	var halves []*Instance
	for _, r := range [][2]int64{{0, 30}, {30, 60}} {
		inst, err := Boot(Config{Source: ds, Lo: r[0], Hi: r[1], CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		addrs = append(addrs, inst.Addr())
		halves = append(halves, inst)
	}
	g, err := transport.NewGroupReplicas([][]string{addrs}, transport.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if lo, hi := g.Range(); lo != 0 || hi != 60 {
		t.Fatalf("group map over [%d,%d), want [0,60)", lo, hi)
	}
	ids := []int64{59, 0, 29, 30, 12, 45, 0, 44}
	views, _, err := g.LoadLazy(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		want, err := ds.Sample(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.Graph().Encode(), want.Encode()) {
			t.Fatalf("sample %d is not byte-identical to the source", ids[i])
		}
	}
	// Each half faulted in exactly the unique ids of its own range.
	for i, want := range []int64{3, 4} {
		if st, _ := halves[i].CacheStats(); st.Misses != want {
			t.Fatalf("half %d fetched %d samples, want %d", i, st.Misses, want)
		}
	}
}

// TestFrontendShedsOverRate proves the wire-level shed path end to end:
// a tenant with a 1-token budget gets exactly one admit; the next request
// comes back as the distinguishable overloaded status and is counted.
func TestFrontendShedsOverRate(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	inst, err := Boot(Config{
		Source: ds, Lo: 0, Hi: 20, WriteTimeout: time.Second,
		Tenants: "tiny:rate=0.001,burst=1", FrontendWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	cl, err := transport.DialOptions(inst.Addr(), transport.ClientOptions{
		Tenant: "tiny",
		Policy: transport.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.GetRaw(3); err != nil {
		t.Fatalf("budgeted get: %v", err)
	}
	if _, err := cl.GetRaw(4); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("over-budget get: %v, want ErrOverloaded", err)
	}
	st, ok := inst.FrontendStats()
	if !ok {
		t.Fatal("no front end stats")
	}
	if st.ShedByReason["rate"] == 0 {
		t.Fatalf("no rate sheds recorded: %+v", st)
	}
	if st.AdmittedByClass[transport.ClassLookup] != 1 { // hello is not a data op
		t.Fatalf("admitted = %+v, want exactly one lookup", st.AdmittedByClass)
	}
}

// TestCloseAfterDrainReportsNoError pins a clean front-end shutdown: Close
// drains first, and the drain already closed the listener, so the server's
// own Close finding it closed is success, not an error to report.
func TestCloseAfterDrainReportsNoError(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	inst, err := Boot(Config{Source: ds, Hi: -1, Tenants: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := transport.DialOptions(inst.Addr(), transport.ClientOptions{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if g, err := getGraph(cl, 3); err != nil || g.ID != 3 {
		t.Fatalf("get = %v, %v; want sample 3", g, err)
	}
	cl.Close()
	if err := inst.Close(); err != nil {
		t.Fatalf("Close after a clean drain = %v, want nil", err)
	}
}
