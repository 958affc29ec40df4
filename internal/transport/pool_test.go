package transport_test

import (
	"errors"
	"sync"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

// TestClientPoolReuse checks the checkout economy: Put-then-Get reuses the
// same client, concurrent checkouts each get their own, and GetRaw works
// through a pooled client.
func TestClientPoolReuse(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := transport.NewClientPool(transport.ClientOptions{})
	defer pool.Close()

	c1, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("pool handed one client to two checkouts")
	}
	raw, err := c1.GetRaw(3)
	if err != nil || len(raw) == 0 {
		t.Fatalf("GetRaw = %d bytes, %v", len(raw), err)
	}
	pool.Put(c1)
	pool.Put(c2)

	c3, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c2 && c3 != c1 {
		t.Fatal("pool dialed fresh with two idle clients")
	}
	pool.Put(c3)
	if st := pool.Stats(); st.Dials != 2 || st.Reuses != 1 {
		t.Errorf("stats %+v, want 2 dials / 1 reuse", st)
	}
}

// TestClientPoolClose checks closed-pool semantics: Get fails with
// ErrClosed, Put closes the returned client instead of parking it, and
// Close is idempotent.
func TestClientPoolClose(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := transport.NewClientPool(transport.ClientOptions{})
	out, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	idle, err := pool.Get(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(idle)

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := pool.Get(srv.Addr()); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	// The idle client was closed by the pool; the checked-out one still
	// works until we return it.
	if _, err := transport.GetGraph(idle, 1); err == nil {
		t.Error("idle client survived pool Close")
	}
	if _, err := transport.GetGraph(out, 1); err != nil {
		t.Errorf("checked-out client broken by pool Close: %v", err)
	}
	pool.Put(out)
	if _, err := transport.GetGraph(out, 1); err == nil {
		t.Error("client returned to a closed pool was not closed")
	}
}

// TestClientPoolServerRestart bounces the server under a pool with a
// parked idle client. The next checkout must hand back that client, and
// the client must notice its dead conn and re-dial the restarted server
// transparently — counted as a reconnect, not surfaced as an error.
func TestClientPoolServerRestart(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	prof := trace.New()
	pool := transport.NewClientPool(transport.ClientOptions{
		Policy: fastPolicy(4), Counters: prof,
	})
	defer pool.Close()

	c, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.GetGraph(c, 3); err != nil {
		t.Fatal(err)
	}
	pool.Put(c)

	// Bounce the server on the same address; the parked conn is now dead.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := transport.Serve(addr, chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	c2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatal("pool dialed fresh instead of reusing the parked client")
	}
	s, err := transport.GetGraph(c2, 3)
	if err != nil {
		t.Fatalf("Get through restarted server: %v", err)
	}
	if s == nil || s.ID != 3 {
		t.Fatalf("got %+v, want sample 3", s)
	}
	pool.Put(c2)

	if n := prof.Counter(transport.CounterReconnects); n < 1 {
		t.Errorf("reconnects = %d, want >= 1: %v", n, prof.Counters())
	}
	if st := pool.Stats(); st.Reuses < 1 {
		t.Errorf("stats %+v, want at least one reuse across the restart", st)
	}
}

// TestClientPoolConcurrent hammers Get/Put from many goroutines; run
// under -race this proves the pool's locking.
func TestClientPoolConcurrent(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := transport.NewClientPool(transport.ClientOptions{})
	defer pool.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c, err := pool.Get(srv.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.GetRaw(int64(i % 10)); err != nil {
					t.Error(err)
				}
				pool.Put(c)
			}
		}()
	}
	wg.Wait()
	if st := pool.Stats(); st.Dials+st.Reuses != 8*20 {
		t.Errorf("stats %+v do not sum to 160 checkouts", st)
	}
}
