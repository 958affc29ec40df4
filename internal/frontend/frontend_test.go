package frontend

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// fakeClock is a manually advanced clock for deterministic bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustNew(t *testing.T, opts Options) *Frontend {
	t.Helper()
	fe, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return fe
}

func mustAdmitConn(t *testing.T, fe *Frontend) transport.ConnGate {
	t.Helper()
	gate, err := fe.AdmitConn("test")
	if err != nil {
		t.Fatalf("AdmitConn: %v", err)
	}
	return gate
}

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("alpha:rate=500,burst=50,conns=8; beta ;*:rate=10,bytes=1024,byteburst=2048")
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	want := []TenantConfig{
		{Name: "alpha", Rate: 500, Burst: 50, MaxConns: 8},
		{Name: "beta"},
		{Name: "*", Rate: 10, BytesPerSec: 1024, ByteBurst: 2048},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseTenantsErrors(t *testing.T) {
	for _, spec := range []string{
		"a:rate=500;a:rate=1", // duplicate
		":rate=1",             // empty name
		"a:rate",              // not key=value
		"a:rate=-3",           // negative
		"a:rate=x",            // not a number
		"a:turbo=9",           // unknown key
	} {
		if _, err := ParseTenants(spec); err == nil {
			t.Errorf("ParseTenants(%q): want error, got nil", spec)
		}
	}
}

func TestRateLimitSheds(t *testing.T) {
	clk := newFakeClock()
	fe := mustNew(t, Options{
		Tenants: []TenantConfig{{Name: transport.DefaultTenant, Rate: 2, Burst: 2}},
		Workers: 4, Now: clk.Now,
	})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	for i := 0; i < 2; i++ {
		release, err := gate.Admit(transport.ClassLookup)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release(0)
	}
	if _, err := gate.Admit(transport.ClassLookup); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("over-rate admit: got %v, want ErrOverloaded", err)
	}
	clk.Advance(time.Second) // refills 2 tokens
	for i := 0; i < 2; i++ {
		release, err := gate.Admit(transport.ClassLookup)
		if err != nil {
			t.Fatalf("post-refill admit %d: %v", i, err)
		}
		release(0)
	}
	st := fe.Stats()
	if st.ShedByReason["rate"] != 1 {
		t.Errorf("shed[rate] = %d, want 1", st.ShedByReason["rate"])
	}
}

func TestByteQuotaSheds(t *testing.T) {
	clk := newFakeClock()
	fe := mustNew(t, Options{
		Tenants: []TenantConfig{{Name: transport.DefaultTenant, BytesPerSec: 100, ByteBurst: 100}},
		Workers: 4, Now: clk.Now,
	})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	release, err := gate.Admit(transport.ClassBulk)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	release(1000) // 10 seconds of quota in one response: deep debt
	if _, err := gate.Admit(transport.ClassBulk); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("in-debt admit: got %v, want ErrOverloaded", err)
	}
	clk.Advance(10 * time.Second) // pays the debt back to a positive balance
	if _, err := gate.Admit(transport.ClassBulk); err != nil {
		t.Fatalf("post-repay admit: %v", err)
	}
	if got := fe.Stats().ShedByReason["bytes"]; got != 1 {
		t.Errorf("shed[bytes] = %d, want 1", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
	fe := mustNew(t, Options{Workers: 1, QueueDepth: 1})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	release, err := gate.Admit(transport.ClassLookup) // occupies the only worker
	if err != nil {
		t.Fatalf("admit holder: %v", err)
	}
	queued := make(chan error, 1)
	go func() {
		r, err := gate.Admit(transport.ClassLookup) // fills the queue
		if err == nil {
			r(0)
		}
		queued <- err
	}()
	waitFor(t, func() bool { return fe.Stats().Queued == 1 })
	if _, err := gate.Admit(transport.ClassLookup); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("queue-full admit: got %v, want ErrOverloaded", err)
	}
	release(0)
	if err := <-queued; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	if got := fe.Stats().ShedByReason["queue"]; got != 1 {
		t.Errorf("shed[queue] = %d, want 1", got)
	}
}

// TestWeightedScheduling pins the weighted round-robin grant order: one
// worker, a held lookup permit, 4 bulk then 4 lookup requests queued.
// With the default 3:1 weights (one lookup credit consumed by the
// holder) the drain order is L,L,B,L,L,B,B,B — lookups run ~3x as often
// while both queues are backed up, and the tail is work-conserving.
func TestWeightedScheduling(t *testing.T) {
	fe := mustNew(t, Options{Workers: 1, QueueDepth: 8})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	release, err := gate.Admit(transport.ClassLookup)
	if err != nil {
		t.Fatalf("admit holder: %v", err)
	}
	var mu sync.Mutex
	var order []transport.Class
	var wg sync.WaitGroup
	enqueue := func(class transport.Class) {
		defer wg.Done()
		r, err := gate.Admit(class)
		if err != nil {
			t.Errorf("admit %v: %v", class, err)
			return
		}
		mu.Lock()
		order = append(order, class)
		mu.Unlock()
		r(0)
	}
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go enqueue(transport.ClassBulk)
	}
	waitFor(t, func() bool { return fe.Stats().Queued == 4 })
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go enqueue(transport.ClassLookup)
	}
	waitFor(t, func() bool { return fe.Stats().Queued == 8 })
	release(0)
	wg.Wait()
	want := []transport.Class{
		transport.ClassLookup, transport.ClassLookup, transport.ClassBulk,
		transport.ClassLookup, transport.ClassLookup, transport.ClassBulk,
		transport.ClassBulk, transport.ClassBulk,
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

func TestConnCaps(t *testing.T) {
	fe := mustNew(t, Options{
		MaxConns: 2,
		Tenants:  []TenantConfig{{Name: "solo", MaxConns: 1}},
	})
	defer fe.Close()
	g1 := mustAdmitConn(t, fe)
	g2 := mustAdmitConn(t, fe)
	if _, err := fe.AdmitConn("x"); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("over global cap: got %v, want ErrOverloaded", err)
	}
	if err := g1.Hello("solo"); err != nil {
		t.Fatalf("hello solo: %v", err)
	}
	if err := g2.Hello("solo"); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("over tenant cap: got %v, want ErrOverloaded", err)
	}
	g1.Close()
	if err := g2.Hello("solo"); err != nil {
		t.Fatalf("hello solo after close: %v", err)
	}
	g2.Close()
	if got := fe.Stats().Conns; got != 0 {
		t.Errorf("conns after closes = %d, want 0", got)
	}
}

func TestTemplateAutoCreate(t *testing.T) {
	clk := newFakeClock()
	fe := mustNew(t, Options{
		Tenants: []TenantConfig{{Name: "*", Rate: 1, Burst: 1}},
		Workers: 4, Now: clk.Now,
	})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	if err := gate.Hello("newcomer"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	release, err := gate.Admit(transport.ClassLookup)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	release(0)
	// The template's rate=1 budget applies to the auto-created tenant.
	if _, err := gate.Admit(transport.ClassLookup); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("second admit: got %v, want ErrOverloaded", err)
	}
}

func TestTenantRegistryCap(t *testing.T) {
	fe := mustNew(t, Options{})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	var full bool
	for i := 0; i < maxTenants+2 && !full; i++ {
		full = gate.Hello(fmt.Sprintf("t%04d", i)) != nil
	}
	if !full {
		t.Fatal("tenant registry never filled up")
	}
}

func TestDrainRefusesNewWorkAndCompletesQueued(t *testing.T) {
	fe := mustNew(t, Options{Workers: 1, QueueDepth: 4})
	gate := mustAdmitConn(t, fe)
	release, err := gate.Admit(transport.ClassLookup) // in-flight through the drain
	if err != nil {
		t.Fatalf("admit holder: %v", err)
	}
	queued := make(chan error, 1)
	go func() {
		r, err := gate.Admit(transport.ClassBulk)
		if err == nil {
			r(0)
		}
		queued <- err
	}()
	waitFor(t, func() bool { return fe.Stats().Queued == 1 })
	fe.StartDrain()
	// New work is refused while draining...
	if _, err := gate.Admit(transport.ClassLookup); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("admit while draining: got %v, want ErrOverloaded", err)
	}
	if _, err := fe.AdmitConn("x"); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("conn while draining: got %v, want ErrOverloaded", err)
	}
	// ...while the queued request completes once the holder releases.
	drained := make(chan bool, 1)
	go func() { drained <- fe.Drain(5 * time.Second) }()
	release(0)
	if err := <-queued; err != nil {
		t.Fatalf("queued request during drain: %v", err)
	}
	if !<-drained {
		t.Fatal("Drain timed out with no outstanding work")
	}
	gate.Close()
	fe.Close()
}

func TestDrainTimesOutOnStuckRequest(t *testing.T) {
	fe := mustNew(t, Options{Workers: 1})
	defer fe.Close()
	gate := mustAdmitConn(t, fe)
	defer gate.Close()
	release, err := gate.Admit(transport.ClassLookup)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if fe.Drain(20 * time.Millisecond) {
		t.Fatal("Drain reported success with a request still in flight")
	}
	release(0)
}

func TestCloseShedsQueuedTickets(t *testing.T) {
	fe := mustNew(t, Options{Workers: 1, QueueDepth: 4})
	gate := mustAdmitConn(t, fe)
	release, err := gate.Admit(transport.ClassLookup)
	if err != nil {
		t.Fatalf("admit holder: %v", err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := gate.Admit(transport.ClassBulk)
		queued <- err
	}()
	waitFor(t, func() bool { return fe.Stats().Queued == 1 })
	fe.Close()
	if err := <-queued; !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("queued ticket on Close: got %v, want ErrOverloaded", err)
	}
	release(0) // release after Close must not panic
	gate.Close()
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	fe := mustNew(t, Options{
		Tenants: []TenantConfig{{Name: transport.DefaultTenant, Rate: 1, Burst: 1}},
		Workers: 2, Reg: reg,
	})
	gate := mustAdmitConn(t, fe)
	release, err := gate.Admit(transport.ClassLookup)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	release(10)
	if _, err := gate.Admit(transport.ClassLookup); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("want rate shed, got %v", err)
	}
	if got := reg.Counter(obs.MetricTenantRequests, "tenant", transport.DefaultTenant, "class", "lookup").Value(); got != 1 {
		t.Errorf("tenant requests = %d, want 1", got)
	}
	if got := reg.Counter(obs.MetricTenantShed, "tenant", transport.DefaultTenant, "reason", "rate").Value(); got != 1 {
		t.Errorf("tenant shed = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MetricConnsOpen, "tenant", transport.DefaultTenant).Value(); got != 1 {
		t.Errorf("conns open = %v, want 1", got)
	}
	fe.StartDrain()
	if got := reg.Gauge(obs.MetricDraining).Value(); got != 1 {
		t.Errorf("draining gauge = %v, want 1", got)
	}
	gate.Close()
	fe.Close()
}

// TestConcurrentHammer drives many connections through admit/release with
// rate limits and a mid-flight drain; run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	fe := mustNew(t, Options{
		Tenants:  []TenantConfig{{Name: "*", Rate: 1e6, Burst: 1e6, MaxConns: 64}},
		MaxConns: 64, Workers: 4, QueueDepth: 16,
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gate, err := fe.AdmitConn("hammer")
			if err != nil {
				return
			}
			defer gate.Close()
			gate.Hello(fmt.Sprintf("tenant-%d", g%4))
			for i := 0; i < 200; i++ {
				class := transport.ClassLookup
				if i%3 == 0 {
					class = transport.ClassBulk
				}
				release, err := gate.Admit(class)
				if err != nil {
					if !errors.Is(err, transport.ErrOverloaded) {
						t.Errorf("admit: %v", err)
					}
					continue
				}
				release(int64(i))
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	fe.StartDrain()
	wg.Wait()
	if ok := fe.Drain(5 * time.Second); !ok {
		t.Fatal("Drain did not complete after workers exited")
	}
	fe.Close()
	st := fe.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("leftover work after close: %+v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
