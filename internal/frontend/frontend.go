// Package frontend is the serving front door between transport's accept
// loop and the chunk source: tenant identity (declared by the client's
// hello frame), per-tenant token-bucket rate limits and byte quotas, a
// global connection cap with per-tenant caps, bounded per-priority-class
// request queues drained by a fixed pool of worker permits under weighted
// round-robin scheduling, explicit load shedding (requests over budget
// fail with transport.ErrOverloaded so clients back off instead of
// failing over), and a graceful drain state machine for shutdown.
//
// It implements transport.Admission; the transport server calls
// AdmitConn per accepted connection and the returned gate's Hello/Admit/
// Close per request, so the front end never touches sockets itself.
package frontend

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// Defaults applied by New when the corresponding Options field is zero.
const (
	DefaultQueueDepth = 64
	// maxTenants caps auto-created registry entries so a client cannot
	// grow server memory by inventing tenant names.
	maxTenants = 1024
)

// The weighted round-robin ratio between the interactive and training
// classes: lookupWeight lookup grants per bulkWeight bulk grants.
// Scheduling is work-conserving, so an idle class never strands capacity.
const (
	lookupWeight = 3
	bulkWeight   = 1
)

// Options configures a Frontend.
type Options struct {
	// Tenants are the static budgets; see ParseTenants for the flag
	// syntax. Tenants not listed are auto-created from the "*" template
	// entry (unlimited when there is no template). A connection that never
	// says hello is charged to transport.DefaultTenant: give it an entry,
	// or a template, to budget anonymous traffic.
	Tenants []TenantConfig
	// MaxConns caps concurrent admitted connections. 0 = unlimited.
	MaxConns int
	// QueueDepth bounds each priority-class queue. Default 64.
	QueueDepth int
	// Workers is the number of concurrent request permits (the worker
	// pool the queues drain into). Default GOMAXPROCS.
	Workers int
	// Reg receives per-tenant and per-class metrics; nil disables.
	Reg *obs.Registry
	// Now overrides the clock for deterministic bucket tests.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ticket is one request from the moment it queues for a worker permit
// until the permit is released. Tickets are recycled through ticketPool:
// Admit takes one, and it goes back either when Admit learns the ticket was
// shed or when the transport calls release after the response is written —
// always with fe and t cleared and the grant channel empty.
type ticket struct {
	fe    *Frontend
	t     *tenant
	class transport.Class
	enq   time.Time
	// start is when the permit was granted: the start of the service time
	// release observes.
	start time.Time
	// grant receives nil when a permit is assigned, or the shed error
	// when the frontend closes with the ticket still queued. It is made
	// once per ticket; every send is matched by Admit's one receive.
	grant chan error
	// release is tk.done bound once, when the ticket is made: the func
	// Admit hands out, so admitting allocates no closure.
	release func(payloadBytes int64)
}

// ticketPool recycles tickets across every Frontend: a ticket carries its
// Frontend, so the pool needs no owner. It is a pool rather than a field of
// Conn because nothing stops one gate admitting from several goroutines.
var ticketPool sync.Pool

func newTicket() *ticket {
	if tk, ok := ticketPool.Get().(*ticket); ok {
		return tk
	}
	tk := &ticket{grant: make(chan error, 1)}
	tk.release = tk.done
	return tk
}

// done is the release Admit returned: it hands the worker permit back and
// recycles the ticket.
func (tk *ticket) done(payloadBytes int64) {
	tk.fe.release(tk, payloadBytes)
	tk.recycle()
}

func (tk *ticket) recycle() {
	tk.fe, tk.t = nil, nil
	ticketPool.Put(tk)
}

// Frontend implements transport.Admission. Create with New.
type Frontend struct {
	opts Options
	m    *metrics

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on drain-relevant transitions
	tenants  map[string]*tenant
	template *TenantConfig // the "*" entry, if any
	conns    int
	queues   [2][]*ticket // indexed by transport.Class
	credits  [2]int       // weighted-RR credits left this round
	free     int          // free worker permits
	inflight int          // permits granted, release not yet called
	draining bool
	closed   bool

	admitted [2]int64
	shed     map[string]int64 // by reason: rate, bytes, queue, conns, drain
}

// New builds a Frontend from opts.
func New(opts Options) (*Frontend, error) {
	opts = opts.withDefaults()
	fe := &Frontend{
		opts:    opts,
		m:       newMetrics(opts.Reg),
		tenants: make(map[string]*tenant),
		free:    opts.Workers,
		credits: [2]int{lookupWeight, bulkWeight},
		shed:    make(map[string]int64),
	}
	fe.cond = sync.NewCond(&fe.mu)
	now := opts.Now()
	for _, cfg := range opts.Tenants {
		if cfg.Name == "" {
			return nil, fmt.Errorf("frontend: tenant with empty name")
		}
		if cfg.Name == "*" {
			tmpl := cfg
			fe.template = &tmpl
			continue
		}
		if _, dup := fe.tenants[cfg.Name]; dup {
			return nil, fmt.Errorf("frontend: duplicate tenant %q", cfg.Name)
		}
		fe.tenants[cfg.Name] = newTenant(cfg, now)
	}
	fe.m.setDraining(false)
	return fe, nil
}

// overloadedf builds a shed error the transport layer maps to the
// overloaded wire status (clients back off and retry, never fail over).
func overloadedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", transport.ErrOverloaded, fmt.Sprintf(format, args...))
}

// tenantLocked resolves (auto-creating from the template) a tenant.
func (fe *Frontend) tenantLocked(name string) (*tenant, error) {
	if name == "" {
		name = transport.DefaultTenant
	}
	if t, ok := fe.tenants[name]; ok {
		return t, nil
	}
	if len(fe.tenants) >= maxTenants {
		return nil, fmt.Errorf("frontend: tenant registry full (%d tenants)", maxTenants)
	}
	cfg := TenantConfig{Name: name}
	if fe.template != nil {
		cfg = *fe.template
		cfg.Name = name
	}
	t := newTenant(cfg, fe.opts.Now())
	fe.tenants[name] = t
	return t, nil
}

func (fe *Frontend) shedLocked(tenantName string, reason string) {
	fe.shed[reason]++
	fe.m.shed(tenantName, reason)
}

// AdmitConn implements transport.Admission: called once per accepted
// connection, before any request is read. Refusals carry the overloaded
// wire status back to the client.
func (fe *Frontend) AdmitConn(remoteAddr string) (transport.ConnGate, error) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.draining || fe.closed {
		fe.m.connReject()
		return nil, overloadedf("draining: not accepting connections")
	}
	if fe.opts.MaxConns > 0 && fe.conns >= fe.opts.MaxConns {
		fe.m.connReject()
		return nil, overloadedf("connection cap reached (%d)", fe.opts.MaxConns)
	}
	t, err := fe.tenantLocked(transport.DefaultTenant)
	if err != nil {
		fe.m.connReject()
		return nil, err
	}
	if t.cfg.MaxConns > 0 && t.conns >= t.cfg.MaxConns {
		fe.m.connReject()
		fe.shedLocked(t.cfg.Name, "conns")
		return nil, overloadedf("tenant %q connection cap reached (%d)", t.cfg.Name, t.cfg.MaxConns)
	}
	fe.conns++
	t.conns++
	fe.m.connsOpen(t.cfg.Name, t.conns)
	return &Conn{fe: fe, t: t}, nil
}

// Conn is the per-connection gate returned by AdmitConn. The transport
// server drives it from the connection's single handler goroutine, so
// Hello/Admit/Close never race each other; shared frontend state is
// guarded by fe.mu.
type Conn struct {
	fe     *Frontend
	t      *tenant
	closed bool
}

// Hello re-homes the connection under the declared tenant, enforcing the
// target tenant's connection cap.
func (c *Conn) Hello(name string) error {
	fe := c.fe
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.draining || fe.closed {
		return overloadedf("draining: not accepting connections")
	}
	t, err := fe.tenantLocked(name)
	if err != nil {
		return err
	}
	if t == c.t {
		return nil
	}
	if t.cfg.MaxConns > 0 && t.conns >= t.cfg.MaxConns {
		fe.shedLocked(t.cfg.Name, "conns")
		return overloadedf("tenant %q connection cap reached (%d)", t.cfg.Name, t.cfg.MaxConns)
	}
	c.t.conns--
	fe.m.connsOpen(c.t.cfg.Name, c.t.conns)
	t.conns++
	fe.m.connsOpen(t.cfg.Name, t.conns)
	c.t = t
	return nil
}

// Admit gates one request: rate and byte buckets first (over-budget
// requests shed immediately), then the class queue (full queue sheds),
// then a blocking wait for a worker permit under weighted scheduling.
// The returned release must be called once, with the response payload
// size, after the response is written.
func (c *Conn) Admit(class transport.Class) (func(payloadBytes int64), error) {
	fe := c.fe
	t := c.t
	fe.mu.Lock()
	if fe.draining || fe.closed {
		fe.shedLocked(t.cfg.Name, "drain")
		fe.mu.Unlock()
		return nil, overloadedf("draining: not accepting requests")
	}
	now := fe.opts.Now()
	if !t.takeToken(now) {
		fe.shedLocked(t.cfg.Name, "rate")
		fe.mu.Unlock()
		return nil, overloadedf("tenant %q over request rate (%.0f/s)", t.cfg.Name, t.cfg.Rate)
	}
	if !t.bytesOK(now) {
		fe.shedLocked(t.cfg.Name, "bytes")
		fe.mu.Unlock()
		return nil, overloadedf("tenant %q over byte quota (%.0f B/s)", t.cfg.Name, t.cfg.BytesPerSec)
	}
	ci := int(class)
	if len(fe.queues[ci]) >= fe.opts.QueueDepth {
		fe.shedLocked(t.cfg.Name, "queue")
		fe.mu.Unlock()
		return nil, overloadedf("%s queue full (%d deep)", class, fe.opts.QueueDepth)
	}
	tk := newTicket()
	tk.fe, tk.t, tk.class, tk.enq = fe, t, class, now
	fe.queues[ci] = append(fe.queues[ci], tk)
	fe.m.queueDepth(class, len(fe.queues[ci]))
	fe.scheduleLocked(now)
	fe.mu.Unlock()

	if err := <-tk.grant; err != nil {
		tk.recycle()
		return nil, err
	}
	return tk.release, nil
}

// Close implements the gate's end-of-connection hook.
func (c *Conn) Close() {
	fe := c.fe
	fe.mu.Lock()
	if !c.closed {
		c.closed = true
		fe.conns--
		c.t.conns--
		fe.m.connsOpen(c.t.cfg.Name, c.t.conns)
	}
	fe.mu.Unlock()
}

// release returns tk's worker permit and settles the byte quota.
func (fe *Frontend) release(tk *ticket, payloadBytes int64) {
	fe.mu.Lock()
	now := fe.opts.Now()
	fe.free++
	fe.inflight--
	tk.t.chargeBytes(now, payloadBytes)
	fe.m.service(tk.class, now.Sub(tk.start))
	fe.scheduleLocked(now)
	if fe.draining {
		fe.cond.Broadcast()
	}
	fe.mu.Unlock()
}

// scheduleLocked hands free worker permits to queued tickets in weighted
// round-robin order: lookupWeight interactive grants per bulkWeight bulk
// grants, work-conserving when one class is idle. now is the clock reading
// its caller (an admit or a release) already took: a ticket's queue wait
// ends, and its service time starts, at the grant.
func (fe *Frontend) scheduleLocked(now time.Time) {
	for fe.free > 0 {
		tk := fe.nextLocked()
		if tk == nil {
			return
		}
		fe.free--
		fe.inflight++
		fe.admitted[tk.class]++
		fe.m.admitted(tk.t.cfg.Name, tk.class)
		fe.m.queueWait(tk.class, now.Sub(tk.enq))
		tk.start = now
		tk.grant <- nil
	}
}

// nextLocked pops the next ticket per the weighted-RR credits, starting a
// fresh credit round whenever work remains but the credited class cannot
// use the permit.
func (fe *Frontend) nextLocked() *ticket {
	const L, B = int(transport.ClassLookup), int(transport.ClassBulk)
	for {
		if fe.credits[L] > 0 && len(fe.queues[L]) > 0 {
			fe.credits[L]--
			return fe.popLocked(L)
		}
		if fe.credits[B] > 0 && len(fe.queues[B]) > 0 && (fe.credits[L] == 0 || len(fe.queues[L]) == 0) {
			fe.credits[B]--
			return fe.popLocked(B)
		}
		if len(fe.queues[L]) == 0 && len(fe.queues[B]) == 0 {
			return nil
		}
		fe.credits[L], fe.credits[B] = lookupWeight, bulkWeight
	}
}

// popLocked takes the head of a class queue, shifting the rest down in
// place (a queue is at most QueueDepth long) so the next append reuses the
// backing array instead of growing a new one behind a resliced front.
func (fe *Frontend) popLocked(ci int) *ticket {
	q := fe.queues[ci]
	tk := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	fe.queues[ci] = q[:n]
	fe.m.queueDepth(transport.Class(ci), n)
	return tk
}

// StartDrain flips the front end into the draining state: new
// connections and new requests are refused with the overloaded status,
// while queued and in-flight requests keep running to completion.
func (fe *Frontend) StartDrain() {
	fe.mu.Lock()
	if !fe.draining {
		fe.draining = true
		fe.m.setDraining(true)
	}
	fe.cond.Broadcast()
	fe.mu.Unlock()
}

// Drain enters the draining state and waits up to timeout for every
// queued and in-flight request to finish. It reports whether the front
// end drained completely.
func (fe *Frontend) Drain(timeout time.Duration) bool {
	fe.StartDrain()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		fe.mu.Lock()
		fe.cond.Broadcast()
		fe.mu.Unlock()
	})
	defer timer.Stop()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	for !fe.idleLocked() && !fe.closed && time.Now().Before(deadline) {
		fe.cond.Wait()
	}
	return fe.idleLocked()
}

func (fe *Frontend) idleLocked() bool {
	return fe.inflight == 0 && len(fe.queues[0]) == 0 && len(fe.queues[1]) == 0
}

// Close hard-stops the front end: any still-queued tickets are shed with
// the drain status. In-flight releases remain safe after Close.
func (fe *Frontend) Close() {
	fe.mu.Lock()
	if !fe.closed {
		fe.closed = true
		if !fe.draining {
			fe.draining = true
			fe.m.setDraining(true)
		}
		for ci := range fe.queues {
			for _, tk := range fe.queues[ci] {
				fe.shedLocked(tk.t.cfg.Name, "drain")
				tk.grant <- overloadedf("draining: server shutting down")
			}
			fe.queues[ci] = nil
			fe.m.queueDepth(transport.Class(ci), 0)
		}
	}
	fe.cond.Broadcast()
	fe.mu.Unlock()
}

// Stats is a point-in-time snapshot for tests and end-of-run reports.
type Stats struct {
	Conns           int
	Queued          int
	InFlight        int
	AdmittedByClass [2]int64 // indexed by transport.Class
	Shed            int64
	ShedByReason    map[string]int64
	Draining        bool
}

// Stats snapshots the front end.
func (fe *Frontend) Stats() Stats {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	st := Stats{
		Conns:           fe.conns,
		Queued:          len(fe.queues[0]) + len(fe.queues[1]),
		InFlight:        fe.inflight,
		AdmittedByClass: fe.admitted,
		ShedByReason:    make(map[string]int64, len(fe.shed)),
		Draining:        fe.draining,
	}
	for r, n := range fe.shed {
		st.Shed += n
		st.ShedByReason[r] = n
	}
	return st
}
