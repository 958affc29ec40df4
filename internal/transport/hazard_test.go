package transport

// The split-phase hazards. A group load holds every issued owner's client
// from Issue until that owner's first Collect, so each test here builds a
// shape that could tie one load, or two, in a knot: a failover onto a
// connection the load itself holds, one server behind two owners, two loads
// over the same owners, and a failed load's other connections. Each runs
// under a deadline, so a deadlock fails the test instead of hanging it.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hazardDeadline bounds every hazard test's work: long enough for the fast
// retry policy to give up on a dead member several times over.
const hazardDeadline = 10 * time.Second

// within fails the test unless fn returns nil within hazardDeadline. Each
// test closes its group inside fn: after a deadline miss, Close would wait
// on the connections a deadlocked load holds.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(hazardDeadline):
		t.Fatalf("%s: not done within %v (deadlock?)", what, hazardDeadline)
	}
}

// loadChecked loads ids and checks every position holds its own sample.
func loadChecked(g *Group, ids []int64) error {
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if gs[i].ID != id {
			return fmt.Errorf("slot %d: sample %d, want %d", i, gs[i].ID, id)
		}
	}
	return nil
}

// servers starts one server per chunk of 8 ids, n chunks from id 0, and
// returns their addresses.
func servers(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	var srvs []*Server
	var addrs []string
	for i := int64(0); i < int64(n); i++ {
		srv, err := Serve("127.0.0.1:0", wireChunk(8*i, 8*i+8))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs, addrs = append(srvs, srv), append(addrs, srv.Addr())
	}
	return srvs, addrs
}

// TestHazardFailoverOntoAnotherOwnersConnection: in a width-2 group even
// ids prefer replica 0 and odd ids replica 1, so a load has two owners. With
// replica 0's member down, the even owner fails over to the odd owner's
// member, whose client the same load held from Issue to its first Collect.
func TestHazardFailoverOntoAnotherOwnersConnection(t *testing.T) {
	dead, _ := servers(t, 1)
	_, live := servers(t, 1)
	g, err := NewGroupReplicas([][]string{{dead[0].Addr()}, live}, GroupOptions{
		Client:           ClientOptions{Policy: fastPolicy()},
		FailoverCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dead[0].Close()
	within(t, "load over a dead preferred member", func() error {
		defer g.Close()
		for rep := 0; rep < 5; rep++ {
			if err := loadChecked(g, []int64{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestHazardOneServerBehindTwoOwners: a static group listing one address in
// both replicas has two members, so two owner tokens per load, and one
// client between them. The second owner's Issue finds the client held by
// the first and defers to the second Collect.
func TestHazardOneServerBehindTwoOwners(t *testing.T) {
	_, addrs := servers(t, 1)
	g, err := NewGroupReplicas([][]string{addrs, addrs}, GroupOptions{
		Client: ClientOptions{Policy: fastPolicy()},
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "load over one server behind two owners", func() error {
		defer g.Close()
		for rep := 0; rep < 20; rep++ {
			if err := loadChecked(g, []int64{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestHazardTwoLoadsShareOneGroup: two goroutines load through one cached
// group over the same owners, in opposite orders, so each finds clients the
// other holds — the shape of a cache workload's concurrent loaders.
func TestHazardTwoLoadsShareOneGroup(t *testing.T) {
	_, addrs := servers(t, 4)
	g, err := NewGroupReplicas([][]string{addrs}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy()},
		CacheBytes: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "two loads over one group", func() error {
		defer g.Close()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 200 && errs[w] == nil; rep++ {
					ids := make([]int64, 8)
					for k := range ids {
						id := int64(4*k+rep) % 32
						if w == 1 {
							id = 31 - id
						}
						ids[k] = id
					}
					errs[w] = loadChecked(g, ids)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// TestHazardFailedLoadLeavesConnectionsAligned: a load whose lowest owner is
// down fails, and every other owner's request it issued was still read to
// the end, so the next single get on each of those connections returns its
// own sample, not the failed load's reply.
func TestHazardFailedLoadLeavesConnectionsAligned(t *testing.T) {
	srvs, addrs := servers(t, 4)
	g, err := NewGroupReplicas([][]string{addrs}, GroupOptions{
		Client:           ClientOptions{Policy: fastPolicy()},
		FailoverCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvs[0].Close()
	within(t, "failed load, then one get per live server", func() error {
		defer g.Close()
		err := loadChecked(g, []int64{1, 9, 17, 25, 2, 10, 18, 26})
		if err == nil || !strings.Contains(err.Error(), "failed on all") {
			return fmt.Errorf("load over a dead owner: err = %v", err)
		}
		for i, addr := range addrs[1:] {
			cl, err := g.clientFor(addr)
			if err != nil {
				return err
			}
			want := int64(8*(i+1) + 5)
			got, err := GetGraph(cl, want)
			if err != nil {
				return err
			}
			if got.ID != want {
				return fmt.Errorf("server %d answered sample %d for %d: its stream is out of step", i+1, got.ID, want)
			}
		}
		return nil
	})
}

// acceptCounter counts the connections its listener accepts.
type acceptCounter struct {
	net.Listener
	n atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestHazardCloseDuringLoads: closing a group while loads run over it must
// not deadlock Close, which waits for the requests in flight on its
// clients, against a load that holds one issued client while it waits to
// reach the next. Close latches the group: a load racing it may fail, but
// dials nothing, so every connection a server accepted is closed again, and
// a load after Close fails with ErrClosed without a server accepting one.
func TestHazardCloseDuringLoads(t *testing.T) {
	var srvs []*Server
	var lns []*acceptCounter
	var addrs []string
	for i := int64(0); i < 4; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lc := &acceptCounter{Listener: ln}
		srv := ServeListener(lc, wireChunk(8*i, 8*i+8), ServerOptions{})
		t.Cleanup(func() { srv.Close() })
		srvs, lns, addrs = append(srvs, srv), append(lns, lc), append(addrs, srv.Addr())
	}
	open := func() (n int) {
		for _, srv := range srvs {
			srv.mu.Lock()
			n += len(srv.conns)
			srv.mu.Unlock()
		}
		return n
	}
	accepted := func() (n int64) {
		for _, lc := range lns {
			n += lc.n.Load()
		}
		return n
	}
	g, err := NewGroupReplicas([][]string{addrs}, GroupOptions{
		Client: ClientOptions{Policy: fastPolicy()},
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "close during loads", func() error {
		var wg sync.WaitGroup
		var stop atomic.Bool
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					loadChecked(g, []int64{1, 9, 17, 25})
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		g.Close()
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
		wg.Wait()
		for deadline := time.Now().Add(2 * time.Second); open() > 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d server connections still open after Close: a load dialed past it", open())
			}
		}
		before := accepted()
		if _, _, err := loadGraphs(g, []int64{1, 9}); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("load after Close: err = %v, want ErrClosed", err)
		}
		time.Sleep(20 * time.Millisecond)
		if n := accepted() - before; n != 0 || open() != 0 {
			return fmt.Errorf("servers accepted %d connections after Close (%d open)", n, open())
		}
		return nil
	})
}
