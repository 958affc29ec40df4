package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/trace"
	"ddstore/internal/wire"
)

// loadGraphs is LoadLazy with every view materialized in request order.
func loadGraphs(g *Group, ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := g.LoadLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

// fastPolicy keeps retry schedules short so failure paths don't stall tests.
func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, DialTimeout: time.Second,
		ReadTimeout: time.Second, WriteTimeout: time.Second, Seed: 1}
}

// TestGetBatchRoundTrip pins the multi-get framing end to end: the client
// sends ids in any order (including duplicates), the server returns the
// matching samples aligned with the request.
func TestGetBatchRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(10, 30))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids := []int64{27, 10, 29, 15, 15, 10}
	gs, err := GetBatchGraphs(cl, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(ids) {
		t.Fatalf("got %d graphs for %d ids", len(gs), len(ids))
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("slot %d: got sample %d, want %d", i, gs[i].ID, id)
		}
	}
	if got, err := cl.GetBatchRaw(nil); got != nil || err != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", got, err)
	}
	if _, err := cl.GetBatchRaw(make([]int64, maxBatchIDs+1)); err == nil {
		t.Fatal("oversized batch accepted by client")
	}
}

// TestGetBatchRejectsOutOfRange: a batch naming a sample outside the chunk
// fails as a remote error, and the connection stays usable.
func TestGetBatchRejectsOutOfRange(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = GetBatchGraphs(cl, []int64{12, 25})
	var rerr *RemoteError
	if !errors.As(err, &rerr) || !strings.Contains(err.Error(), "outside chunk") {
		t.Fatalf("out-of-range batch: %v, want remote out-of-chunk error", err)
	}
	// Same connection, next request still works: the body was consumed.
	gs, err := GetBatchGraphs(cl, []int64{12, 13})
	if err != nil || len(gs) != 2 {
		t.Fatalf("batch after rejection: %v, %v", gs, err)
	}
}

// TestBatchInvalidCountClosesConn: a batch header with a hostile count has
// an unknowable body length, so the server must answer with an error and
// then drop the connection rather than misparse the stream.
func TestBatchInvalidCountClosesConn(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, count := range []int64{0, -5, maxBatchIDs + 1, 1 << 40} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		status, payload := rawRequest(t, conn, opGetBatch, count, 0)
		if status != statusError || !strings.Contains(string(payload), "batch count") {
			t.Fatalf("count %d: status %d, %q", count, status, payload)
		}
		// The connection must now be closed: the next read sees EOF.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("count %d: conn read after invalid count = %v, want EOF", count, err)
		}
		conn.Close()
	}
}

// TestGroupBatchesRoundTrips is the batching acceptance proof: loading B
// remote samples that live on one owner costs exactly ceil(B/maxBatch)
// round trips, and a repeat epoch over the same ids is served entirely
// from cache — zero additional round trips, >= 90% hit rate.
func TestGroupBatchesRoundTrips(t *testing.T) {
	const (
		numSamples = 50
		maxBatch   = 8
	)
	srv, err := Serve("127.0.0.1:0", wireChunk(0, numSamples))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prof := trace.New()
	g, err := NewGroupReplicas([][]string{{srv.Addr()}}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy(), Counters: prof},
		MaxBatch:   maxBatch,
		CacheBytes: 1 << 20, // plenty for the whole chunk
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ids := make([]int64, numSamples)
	for i := range ids {
		ids[i] = int64(i)
	}

	// Epoch 1: all misses; one owner; ceil(50/8) = 7 round trips.
	base := prof.Counter(CounterRoundTrips) // excludes the dial-time shard map probe
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("epoch 1 slot %d: sample %d, want %d", i, gs[i].ID, id)
		}
	}
	wantTrips := int64((numSamples + maxBatch - 1) / maxBatch)
	if got := prof.Counter(CounterRoundTrips) - base; got != wantTrips {
		t.Fatalf("epoch 1: %d round trips for %d samples (maxBatch %d), want %d",
			got, numSamples, maxBatch, wantTrips)
	}

	// Epoch 2: same ids, all cached — zero network activity.
	base = prof.Counter(CounterRoundTrips)
	hitBase := g.CacheStats().Hits
	if _, _, err := loadGraphs(g, ids); err != nil {
		t.Fatal(err)
	}
	if got := prof.Counter(CounterRoundTrips) - base; got != 0 {
		t.Fatalf("epoch 2: %d round trips for fully cached ids, want 0", got)
	}
	st := g.CacheStats()
	if hits := st.Hits - hitBase; hits != numSamples {
		t.Fatalf("epoch 2: %d hits, want %d", hits, numSamples)
	}
	if rate := st.HitRate(); rate < 0.5 {
		// Over both epochs: 50 misses then 50 hits = 50% overall; the
		// epoch-2 rate asserted above is 100%, comfortably >= 90%.
		t.Fatalf("overall hit rate %v implausibly low", rate)
	}
}

// TestGroupBatchSpansOwners: a batch crossing chunk boundaries goes to
// each owner separately, in one round trip per owner.
func TestGroupBatchSpansOwners(t *testing.T) {
	srvA, err := Serve("127.0.0.1:0", wireChunk(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := Serve("127.0.0.1:0", wireChunk(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	prof := trace.New()
	g, err := NewGroupReplicas([][]string{{srvA.Addr(), srvB.Addr()}}, GroupOptions{
		Client:   ClientOptions{Policy: fastPolicy(), Counters: prof},
		MaxBatch: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	base := prof.Counter(CounterRoundTrips)
	ids := []int64{3, 17, 6, 11, 0, 19}
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("slot %d: sample %d, want %d", i, gs[i].ID, id)
		}
	}
	if got := prof.Counter(CounterRoundTrips) - base; got != 2 {
		t.Fatalf("%d round trips for a 2-owner batch, want 2", got)
	}
}

// TestGroupBatchFailsOver: when the preferred owner dies, a batch's ids are
// refetched from the owner in the other replica, still batched.
func TestGroupBatchFailsOver(t *testing.T) {
	srvA, err := Serve("127.0.0.1:0", wireChunk(0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := Serve("127.0.0.1:0", wireChunk(0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	prof := trace.New()
	g, err := NewGroupReplicas([][]string{{srvA.Addr()}, {srvB.Addr()}}, GroupOptions{
		Client:           ClientOptions{Policy: fastPolicy(), Counters: prof},
		FailoverCooldown: 200 * time.Millisecond,
		MaxBatch:         64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	srvA.Close() // kill one replica; every id preferring it must fail over
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		t.Fatalf("load with one dead replica: %v", err)
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("slot %d: sample %d, want %d", i, gs[i].ID, id)
		}
	}
	if prof.Counter(CounterFailovers) == 0 {
		t.Fatal("no failovers recorded despite a dead replica")
	}

	srvB.Close()
	if _, _, err := loadGraphs(g, []int64{9}); err == nil {
		t.Fatal("load succeeded with every replica dead")
	} else if !strings.Contains(err.Error(), "failed on all") {
		t.Fatalf("all-dead error = %v", err)
	}
}

// TestGroupLoadCoalesces: concurrent Loads racing on the same cold id
// produce one upstream fetch; the rest coalesce on the flight table.
func TestGroupLoadCoalesces(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g, err := NewGroupReplicas([][]string{{srv.Addr()}}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy()},
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			gs, _, err := loadGraphs(g, []int64{2})
			if err != nil || gs[0].ID != 2 {
				t.Errorf("load: %v, %v", gs, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := g.CacheStats()
	if st.Misses+st.Coalesced+st.Hits != workers {
		t.Fatalf("stats = %+v: lookups don't add up to %d", st, workers)
	}
	if st.Misses > 2 {
		// One leader fetches; racers either coalesce or (having started
		// after delivery) hit. More than a couple of misses means the
		// flight table is not coalescing.
		t.Fatalf("stats = %+v: %d upstream fetches for one hot id", st, st.Misses)
	}
}

// TestGroupDuplicateIDsInOneBatch: the same cold id twice in one Load must
// not deadlock (leader waiting on itself) and must fill both slots.
func TestGroupDuplicateIDsInOneBatch(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g, err := NewGroupReplicas([][]string{{srv.Addr()}}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy()},
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	done := make(chan error, 1)
	go func() {
		want := []int64{1, 1, 3, 1}
		gs, _, err := loadGraphs(g, want)
		if err == nil {
			for i := range want {
				if gs[i].ID != want[i] {
					err = fmt.Errorf("slot %d: sample %d, want %d", i, gs[i].ID, want[i])
					break
				}
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Load with duplicate ids deadlocked")
	}
}

// TestGroupErrorFailsFlights: when a Load errors, coalesced waiters in
// other goroutines receive the failure instead of blocking forever.
func TestGroupErrorFailsFlights(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroupReplicas([][]string{{srv.Addr()}}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy()},
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	srv.Close() // all fetches will now fail
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			_, _, err := loadGraphs(g, []int64{5})
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("load against a dead server succeeded")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("coalesced waiter hung after leader failure")
		}
	}
}

// TestBatchPayloadHelpers pins the length-prefixed framing against decode
// corruption cases the fuzzer also explores.
func TestBatchPayloadHelpers(t *testing.T) {
	parts := [][]byte{{1, 2, 3}, {}, {9}, make([]byte, 300)}
	back, err := decodeBatchPayload(encodeBatchPayload(parts), len(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(parts) {
		t.Fatalf("round trip: %d parts, want %d", len(back), len(parts))
	}
	for i := range parts {
		if string(back[i]) != string(parts[i]) {
			t.Fatalf("part %d corrupted", i)
		}
	}

	if _, err := decodeBatchPayload([]byte{1, 2}, 1); err == nil {
		t.Fatal("truncated entry header accepted")
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<31)
	if _, err := decodeBatchPayload(huge[:], 1); err == nil {
		t.Fatal("entry length beyond payload accepted")
	}
	// The part list is sized from the count asked for, capped: a caller's
	// count can no more force an allocation than the payload's bytes can.
	if back, err := decodeBatchPayload(nil, 1<<40); err != nil || cap(back) > maxBatchIDs {
		t.Fatalf("want 1<<40: cap %d, err %v", cap(back), err)
	}

	ids := []int64{-1, 0, 1 << 50}
	got := decodeBatchIDs(nil, wire.AppendIDs(nil, ids), len(ids))
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id %d: %d != %d", i, got[i], ids[i])
		}
	}
}

// Compile-time check: a *trace.Profiler satisfies both counter sinks, so
// one profiler carries network and cache counters for the same run.
var (
	_ Counters       = (*trace.Profiler)(nil)
	_ cache.Counters = (*trace.Profiler)(nil)
)
