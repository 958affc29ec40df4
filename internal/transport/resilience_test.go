package transport_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

// fastPolicy keeps retry schedules short enough for tests.
func fastPolicy(attempts int) transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		DialTimeout: 500 * time.Millisecond,
		ReadTimeout: 500 * time.Millisecond,
		Seed:        42,
	}
}

// serveFaulty starts a server whose accept path runs through an injector.
func serveFaulty(t *testing.T, in *faultnet.Injector, src transport.ChunkSource) *transport.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeListener(in.Listener(ln), src, transport.ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestClientConcurrentUseRace is the -race regression for the shared-conn
// client: 8 goroutines hammer one Client; framing must stay intact and no
// data race may be reported.
func TestClientConcurrentUseRace(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 40})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 40))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := int64((w*13 + i*5) % 40)
				g, err := transport.GetGraph(cl, id)
				if err != nil {
					errs[w] = err
					return
				}
				if g.ID != id {
					errs[w] = errors.New("wrong sample id: framing corrupted")
					return
				}
				if i%20 == 0 {
					if _, err := cl.ShardMap(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// connTracker is a listener that remembers what it accepts, so a test can
// sever every established connection at once while the listener stays up.
type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connTracker) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// breakAll resets every accepted connection — a network blip severing
// established flows: SetLinger(0) turns each close into an RST, so the
// peer sees a genuine connection reset rather than a graceful EOF.
func (l *connTracker) breakAll() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.(*net.TCPConn).SetLinger(0)
		c.Close()
	}
	n := len(l.conns)
	l.conns = nil
	return n
}

// TestClientReconnectsAfterBrokenConn severs every established connection
// mid-session; the next Get must transparently re-dial and succeed.
func TestClientReconnectsAfterBrokenConn(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tracker := &connTracker{Listener: ln}
	srv := transport.ServeListener(tracker, chunkFor(t, ds, 0, 10), transport.ServerOptions{})
	defer srv.Close()

	prof := trace.New()
	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{
		Policy:   fastPolicy(4),
		Counters: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := transport.GetGraph(cl, 1); err != nil {
		t.Fatalf("healthy get: %v", err)
	}
	if n := tracker.breakAll(); n == 0 {
		t.Fatal("no live connections to break")
	}
	if _, err := transport.GetGraph(cl, 2); err != nil {
		t.Fatalf("get after broken conn: %v", err)
	}
	if prof.Counter(transport.CounterReconnects) == 0 {
		t.Fatalf("no reconnects recorded: %v", prof.Counters())
	}
	if prof.Counter(transport.CounterRetries) == 0 {
		t.Fatalf("no retries recorded: %v", prof.Counters())
	}
}

// TestClientRejectsCorruptPayloads runs against a server whose writes flip
// bytes half the time: CRC verification must reject the bad frames and the
// retry loop must still converge on the good ones.
func TestClientRejectsCorruptPayloads(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	in := faultnet.New(faultnet.Scenario{Seed: 5, CorruptProb: 0.5})
	srv := serveFaulty(t, in, chunkFor(t, ds, 0, 10))

	prof := trace.New()
	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{
		Policy:   fastPolicy(10),
		Counters: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for id := int64(0); id < 10; id++ {
		g, err := transport.GetGraph(cl, id)
		if err != nil {
			t.Fatalf("get %d under corruption: %v", id, err)
		}
		want, _ := ds.Sample(id)
		if g.ID != id || g.Y[0] != want.Y[0] {
			t.Fatalf("sample %d decoded from corrupt bytes", id)
		}
	}
	if in.Stats().Corruptions == 0 {
		t.Fatal("injector never corrupted a write")
	}
	if prof.Counter(transport.CounterChecksumErrors) == 0 {
		t.Fatalf("CRC never rejected a frame: %v", prof.Counters())
	}
}

// TestClientTimesOutOnStall points a client with a short read deadline at
// a server that always stalls longer: the deadline, not the stall, decides.
func TestClientTimesOutOnStall(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 4})
	in := faultnet.New(faultnet.Scenario{Seed: 9, StallProb: 1, StallFor: 400 * time.Millisecond})
	srv := serveFaulty(t, in, chunkFor(t, ds, 0, 4))

	prof := trace.New()
	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{
		Policy: transport.RetryPolicy{
			MaxAttempts: 2, BaseDelay: time.Millisecond,
			ReadTimeout: 50 * time.Millisecond, DialTimeout: time.Second, Seed: 1,
		},
		Counters: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = transport.GetGraph(cl, 0)
	if err == nil {
		t.Fatal("stalled get succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the stall: %v", elapsed)
	}
	if prof.Counter(transport.CounterTimeouts) == 0 {
		t.Fatalf("no timeouts recorded: %v", prof.Counters())
	}
	if prof.Counter(transport.CounterGiveUps) == 0 {
		t.Fatalf("no give-ups recorded: %v", prof.Counters())
	}
}

// TestGroupFailsOverToOtherReplica kills a whole replica's server; every
// sample must still load from the surviving replica, with failover
// counters recording the reroutes.
func TestGroupFailsOverToOtherReplica(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	// Replica 0: one server with everything. Replica 1: two servers with
	// different chunk boundaries (boundaries may differ between replicas).
	srv0, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	srv1a, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer srv1a.Close()
	srv1b, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 12, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv1b.Close()

	prof := trace.New()
	grp, err := transport.NewGroupReplicas(
		[][]string{{srv0.Addr()}, {srv1a.Addr(), srv1b.Addr()}},
		transport.GroupOptions{
			Client:           transport.ClientOptions{Policy: fastPolicy(2), Counters: prof},
			FailoverCooldown: 200 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	if grp.Len() != 20 {
		t.Fatalf("len = %d", grp.Len())
	}

	// Healthy pass.
	for id := int64(0); id < 20; id++ {
		if _, _, err := loadGraphs(grp, []int64{id}); err != nil {
			t.Fatalf("healthy get %d: %v", id, err)
		}
	}

	// Kill replica 0 entirely; every sample must still be served.
	srv0.Close()
	for pass := 0; pass < 2; pass++ {
		for id := int64(0); id < 20; id++ {
			gs, _, err := loadGraphs(grp, []int64{id})
			if err != nil {
				t.Fatalf("get %d with dead replica: %v", id, err)
			}
			g := gs[0]
			want, _ := ds.Sample(id)
			if g.ID != id || g.Y[0] != want.Y[0] {
				t.Fatalf("sample %d corrupted during failover", id)
			}
		}
	}
	if prof.Counter(transport.CounterFailovers) == 0 {
		t.Fatalf("no failovers recorded: %v", prof.Counters())
	}
}

// TestGroupRejectsMismatchedReplicas verifies replica spans must agree.
func TestGroupRejectsMismatchedReplicas(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	srv0, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	if _, err := transport.NewGroupReplicas(
		[][]string{{srv0.Addr()}, {srv1.Addr()}}, transport.GroupOptions{}); err == nil {
		t.Fatal("mismatched replica spans accepted")
	}
}
