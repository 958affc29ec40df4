package transport_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/transport"
)

// fakeAdmission implements transport.Admission for front-door tests
// without dragging in the real frontend package.
type fakeAdmission struct {
	refuse error // when set, AdmitConn fails with this

	mu      sync.Mutex
	gates   []*fakeGate
	classes []transport.Class // every admitted request's class, across gates, in order
}

func (a *fakeAdmission) AdmitConn(remote string) (transport.ConnGate, error) {
	if a.refuse != nil {
		return nil, a.refuse
	}
	g := &fakeGate{adm: a}
	a.mu.Lock()
	a.gates = append(a.gates, g)
	a.mu.Unlock()
	return g, nil
}

type fakeGate struct {
	adm    *fakeAdmission
	mu     sync.Mutex
	tenant string
	admits int
	refuse error
}

func (g *fakeGate) Hello(tenant string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tenant = tenant
	return nil
}

func (g *fakeGate) Admit(class transport.Class) (func(int64), error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.refuse != nil {
		return nil, g.refuse
	}
	g.admits++
	g.adm.mu.Lock()
	g.adm.classes = append(g.adm.classes, class)
	g.adm.mu.Unlock()
	return func(int64) {}, nil
}

func (g *fakeGate) Close() {}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAcceptCapRejectsExcessConns pins the accept-loop semaphore: with
// MaxConns=1 and one connection held open, further accepts are closed
// without spawning a handler and counted; closing the first connection
// frees the slot.
func TestAcceptCapRejectsExcessConns(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	reg := obs.NewRegistry()
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 10),
		transport.ServerOptions{MaxConns: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A completed round trip proves the server-side handler owns the slot.
	if _, err := transport.GetGraph(c1, 3); err != nil {
		t.Fatal(err)
	}

	// The second raw conn must be closed by the server without a response.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("over-cap connection received bytes, want immediate close")
	}
	rejects := reg.Counter(obs.MetricAcceptRejected)
	waitUntil(t, "accept reject counter", func() bool { return rejects.Value() >= 1 })

	// Freeing the slot lets a new client in. The handler releases the
	// semaphore asynchronously after the close, so retry briefly.
	c1.Close()
	waitUntil(t, "freed conn slot", func() bool {
		c2, err := transport.Dial(srv.Addr())
		if err != nil {
			return false
		}
		defer c2.Close()
		_, err = transport.GetGraph(c2, 3)
		return err == nil
	})
}

// TestAdmissionConnRefusalSpeaksOverloaded checks the reject path: when
// AdmitConn refuses with ErrOverloaded, the client's requests on that
// connection are each answered with the overloaded wire status — a
// distinguishable, retryable error, not a broken pipe.
func TestAdmissionConnRefusalSpeaksOverloaded(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	adm := &fakeAdmission{refuse: fmt.Errorf("all conn slots spoken for: %w", transport.ErrOverloaded)}
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 10),
		transport.ServerOptions{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Policy: fastPolicy(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := transport.GetGraph(c, 3); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("Get on refused conn = %v, want ErrOverloaded", err)
	}
}

// TestHelloDeclaresTenantToGate checks that a client configured with a
// tenant identity performs the hello handshake before its first data op
// and that per-request admission sees the data ops (hello itself is not
// charged).
func TestHelloDeclaresTenantToGate(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	adm := &fakeAdmission{}
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 10),
		transport.ServerOptions{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{
		Policy: fastPolicy(2), Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := transport.GetGraph(c, 3); err != nil {
		t.Fatal(err)
	}

	adm.mu.Lock()
	ngates := len(adm.gates)
	adm.mu.Unlock()
	if ngates != 1 {
		t.Fatalf("server created %d gates, want 1", ngates)
	}
	g := adm.gates[0]
	g.mu.Lock()
	tenant, admits := g.tenant, g.admits
	g.mu.Unlock()
	if tenant != "acme" {
		t.Errorf("gate saw tenant %q, want acme", tenant)
	}
	if admits != 1 {
		t.Errorf("gate admitted %d requests, want 1 (hello is not charged)", admits)
	}
}

// TestGateOverloadRetriesOnSameConn checks backoff-don't-failover at the
// wire level: per-request shedding keeps the connection alive, the
// client counts overloads, and once the gate opens the same connection
// serves the request without a re-dial.
func TestGateOverloadRetriesOnSameConn(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	adm := &fakeAdmission{}
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 10),
		transport.ServerOptions{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Policy: fastPolicy(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := transport.GetGraph(c, 3); err != nil {
		t.Fatal(err) // establish the conn and its gate
	}
	adm.mu.Lock()
	g := adm.gates[0]
	adm.mu.Unlock()

	g.mu.Lock()
	g.refuse = fmt.Errorf("queue full: %w", transport.ErrOverloaded)
	g.mu.Unlock()
	if _, err := transport.GetGraph(c, 4); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("Get while shedding = %v, want ErrOverloaded", err)
	}

	g.mu.Lock()
	g.refuse = nil
	g.mu.Unlock()
	if _, err := transport.GetGraph(c, 4); err != nil {
		t.Fatalf("Get after shedding cleared: %v", err)
	}
	adm.mu.Lock()
	ngates := len(adm.gates)
	adm.mu.Unlock()
	if ngates != 1 {
		t.Fatalf("client re-dialed across an overload (%d gates), want same conn", ngates)
	}
}

// TestAdmissionClassPerEntryPoint pins the priority class each entry point
// is admitted on: single gets and shard map probes (a static group's range
// discovery among them) are lookups, batch fetches and group loads are
// bulk. Every row dials its own connection, whose first request follows a
// hello, and must be charged exactly one admission: hello is not charged.
func TestAdmissionClassPerEntryPoint(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	adm := &fakeAdmission{}
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 10),
		transport.ServerOptions{Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := transport.ClientOptions{Policy: fastPolicy(2), Tenant: "acme", Tracing: true}
	ids := []int64{1, 4, 6}

	// Each row prepares its caller and returns the one call under test.
	type call func() error
	client := func(t *testing.T, do func(c *transport.Client) error) call {
		c, err := transport.DialOptions(srv.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return func() error { return do(c) }
	}
	rows := []struct {
		name    string
		prepare func(t *testing.T) call
		want    transport.Class
	}{
		{"GetRaw", func(t *testing.T) call {
			return client(t, func(c *transport.Client) error { _, err := c.GetRaw(3); return err })
		}, transport.ClassLookup},
		{"GetRawTraced", func(t *testing.T) call {
			return client(t, func(c *transport.Client) error {
				_, timing, err := c.GetRawTraced(3, tracectx.New(true))
				if err == nil && timing == nil {
					err = errors.New("no server timing")
				}
				return err
			})
		}, transport.ClassLookup},
		{"GetBatchBufs", func(t *testing.T) call {
			return client(t, func(c *transport.Client) error {
				buf, _, err := c.GetBatchBufs(ids)
				if err == nil {
					buf.Release()
				}
				return err
			})
		}, transport.ClassBulk},
		{"GetBatchRaw", func(t *testing.T) call {
			return client(t, func(c *transport.Client) error { _, err := c.GetBatchRaw(ids); return err })
		}, transport.ClassBulk},
		{"Group.LoadLazy", func(t *testing.T) call {
			g, err := transport.NewGroupReplicas([][]string{{srv.Addr()}}, transport.GroupOptions{Client: opts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.Close)
			return func() error { _, _, err := g.LoadLazy(ids); return err }
		}, transport.ClassBulk},
		{"NewGroupReplicas", func(*testing.T) call {
			return func() error {
				g, err := transport.NewGroupReplicas([][]string{{srv.Addr()}}, transport.GroupOptions{Client: opts})
				if err == nil {
					g.Close()
				}
				return err
			}
		}, transport.ClassLookup},
		{"ShardMap", func(t *testing.T) call {
			return client(t, func(c *transport.Client) error { _, err := c.ShardMap(); return err })
		}, transport.ClassLookup},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			do := row.prepare(t)
			adm.mu.Lock()
			mark := len(adm.classes)
			adm.mu.Unlock()
			if err := do(); err != nil {
				t.Fatal(err)
			}
			// The server admits a request before it answers it, so the
			// class is recorded by the time the call returns.
			adm.mu.Lock()
			got := append([]transport.Class(nil), adm.classes[mark:]...)
			adm.mu.Unlock()
			if len(got) != 1 || got[0] != row.want {
				t.Fatalf("admitted %v, want exactly [%v]", got, row.want)
			}
		})
	}
}
