package serveboot

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/faultnet"
	"ddstore/internal/frontend"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/shardmap"
	"ddstore/internal/transport"
)

// migrateBatch is how many samples one migration pull requests at a time
// — the same batched getbatch framing clients use.
const migrateBatch = 256

// migrationTenant is the reserved tenant migration pull clients declare.
// The cluster registers it (unlimited) with its own front end, so pulls are
// admitted, queued (bulk class) and counted beside tenant traffic, not
// around it; a Tenants spec that names it fails to boot as a duplicate.
const migrationTenant = "ddstore-migration"

// chunk is the one ChunkSource every owner serves from: a resident set
// over the cluster keyspace. LocalRange is the whole keyspace — which ids
// an owner answers for is the shard map's job, checked by the server before
// the chunk is touched — so static clients discover the range as they
// always did and never see a stale-generation answer from a cluster that
// has not resharded. The serving mode is the miss policy. Preloaded
// (hot == nil): each shard the owner holds is one packed buffer plus one
// 32-bit end offset per sample, preloaded or migrated whole, and a miss is
// an error, which keeps "no chunk leaves its old owner before the gainer
// holds it" checkable. Lazy (hot != nil): a miss faults the sample in from
// the durable source through the cluster's byte-budgeted cache, concurrent
// misses coalesced into one read.
type chunk struct {
	lo, hi int64
	src    SampleSource
	hot    *cache.Cache
	// bounds holds the shard bounds, which stay fixed for the cluster's
	// life: Planner.Next copies them into every generation.
	bounds *shardmap.Map

	mu     sync.RWMutex
	shards []*graph.Packed // shards[i] is shard i, nil when not resident; preloaded mode only
}

func (c *chunk) LocalRange() (int64, int64) { return c.lo, c.hi }

func (c *chunk) LocalSampleBytes(id int64) ([]byte, error) {
	if id < c.lo || id >= c.hi {
		return nil, fmt.Errorf("serveboot: sample %d not in chunk [%d,%d)", id, c.lo, c.hi)
	}
	if c.hot != nil {
		return c.hot.GetOrFetch(id, func() ([]byte, error) { return readEncoded(c.src, id) })
	}
	i := c.bounds.ShardIndex(id)
	c.mu.RLock()
	p := c.shards[i]
	c.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("serveboot: sample %d not resident on this owner", id)
	}
	return p.Sample(id), nil
}

// install makes shard i resident: the gainer's side of a migration, done
// before it applies the generation that makes it an owner.
func (c *chunk) install(i int, p *graph.Packed) {
	c.mu.Lock()
	c.shards[i] = p
	c.mu.Unlock()
}

// retainOwned drops every resident shard the member no longer owns under
// m — the post-cutover memory release on the losing side of a migration.
func (c *chunk) retainOwned(m *shardmap.Map, mi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.shards {
		if !slices.Contains(m.Shards[i].Owners, mi) {
			c.shards[i] = nil
		}
	}
}

// readEncoded reads one sample from the durable source in wire encoding,
// into a buffer of its own: the one allocation of a lazy miss.
func readEncoded(src SampleSource, id int64) ([]byte, error) {
	raw, err := src.AppendSample(nil, id)
	if err != nil {
		return nil, fmt.Errorf("durable source read %d: %w", id, err)
	}
	return raw, nil
}

// mapView adapts one owner's shardmap.Store to the transport server's
// ShardMapSource: ownership questions resolve against the owner's live
// generation, keyed by its stable member ID.
type mapView struct {
	st *shardmap.Store
	id string
}

func (v mapView) Generation() uint64 { return v.st.Generation() }

func (v mapView) Owns(id int64) bool {
	m := v.st.Current()
	mi := m.MemberIndex(v.id)
	return mi >= 0 && m.OwnedBy(id, mi)
}

func (v mapView) Encoded() ([]byte, error) { return v.st.Encoded() }

// Owner is one serving member of a cluster.
type Owner struct {
	ID      string
	addr    string
	chunk   *chunk
	maps    *shardmap.Store
	srv     *transport.Server
	crashed atomic.Bool
}

// Addr returns the owner's data-plane listen address.
func (o *Owner) Addr() string { return o.addr }

// Cluster is a live owner set plus everything its owners share: the
// control plane (membership transitions, chunk migration), front end,
// lazy-mode cache, flight recorder, chaos injector and metrics/admin
// endpoint. All membership operations serialize on the cluster lock;
// serving and migration overlap freely.
type Cluster struct {
	cfg       Config
	src       SampleSource
	closer    func() error // releases what src opened; nil when nothing
	lo, hi    int64
	srvOpts   transport.ServerOptions // every owner's, bar its own shard-map view
	hot       *cache.Cache            // nil when owners preload
	fe        *frontend.Frontend      // nil without front-end settings
	injector  *faultnet.Injector      // nil without Chaos
	rec       *flightrec.Recorder
	stopWatch func()
	reg       *obs.Registry
	dbg       *obs.DebugServer
	// migrating counts membership transitions in flight; closing latches
	// on shutdown and freezes the membership (transitions check it). /readyz
	// reads both without the cluster lock, which a migration holds throughout.
	migrating atomic.Int32
	closing   atomic.Bool
	gen       *obs.Gauge
	moved     *obs.Counter
	migB      *obs.Histogram
	migS      *obs.Histogram
	events    *obs.CounterSink // the migration pull clients' resilience counts

	mu     sync.Mutex
	cur    *shardmap.Map
	owners map[string]*Owner
	order  []string                     // owner IDs in join order (reshard removes newest first)
	pulls  map[string]*transport.Client // migration pull clients by source owner ID
	nextID int
}

// BootCluster starts a cluster: the initial owners listen, the generation-1
// map stripes the keyspace uniformly over them, and each owner preloads its
// shards from the durable source (or, with CacheBytes set, serves lazily).
func BootCluster(cfg Config) (_ *Cluster, err error) {
	src, closer, err := openSource(cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	c := &Cluster{
		cfg: cfg, src: src, closer: closer, lo: cfg.Lo, hi: cfg.Hi,
		srvOpts: transport.ServerOptions{WriteTimeout: cfg.WriteTimeout, IdleTimeout: cfg.IdleTimeout},
		reg:     reg,
		gen:     obs.ShardMapGenerationGauge(reg),
		moved:   obs.ShardMapChunksMovedCounter(reg),
		migB:    obs.MigrationBytesHistogram(reg),
		migS:    obs.MigrationSecondsHistogram(reg),
		events:  obs.EventSink(reg),
		owners:  make(map[string]*Owner),
		pulls:   make(map[string]*transport.Client),
	}
	// Close is the one unwinder: it releases whatever has been built, bar
	// the listeners no owner has taken yet (closing one twice is harmless).
	var lns []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			c.Close()
		}
	}()

	if c.hi <= 0 {
		c.hi = int64(src.Len())
	}
	if c.lo < 0 || c.hi > int64(src.Len()) || c.lo >= c.hi {
		return nil, fmt.Errorf("serveboot: bad range [%d,%d) for %d samples", c.lo, c.hi, src.Len())
	}
	if cfg.CacheBytes > 0 {
		c.hot = cache.New(cache.Options{MaxBytes: cfg.CacheBytes})
	}

	// The flight recorder runs whether or not the debug endpoint does: the
	// last window of anomalies is in memory the moment anyone asks.
	if cfg.FlightRecCap >= 0 {
		c.rec = flightrec.New(cfg.FlightRecCap)
		c.srvOpts.FlightRecorder = c.rec
		c.srvOpts.SlowThreshold = cfg.SlowThreshold // negative: the server records no slow requests
		if cfg.SlowThreshold == 0 {
			c.srvOpts.SlowThreshold = 250 * time.Millisecond
		}
		if cfg.FlightRecDir != "" {
			c.stopWatch = c.rec.Watch(flightrec.WatchConfig{Dir: cfg.FlightRecDir})
		}
	}

	// Two rules decide what is metered. The control-plane instruments
	// above always live in the registry: callers read them through
	// Registry() with no debug address. The request path (ServerOptions.
	// Metrics, the front end's Reg) is metered iff DebugAddr is set:
	// nothing can scrape it otherwise, and the front end's labelled-series
	// lookup allocates on every request. Known event counters are
	// pre-registered at zero so a scrape shows the schema before traffic:
	// the cache's, and the transport's that the migration pull clients
	// count. Failovers and stale refreshes are not among them: only a
	// client Group emits those, and a server has none.
	if cfg.DebugAddr != "" {
		c.srvOpts.Metrics = reg
		obs.NewCounterSink(reg, obs.MetricEvents, "event",
			cache.CounterHits, cache.CounterMisses, cache.CounterCoalesced, cache.CounterEvictions,
			transport.CounterRoundTrips, transport.CounterRetries, transport.CounterReconnects,
			transport.CounterTimeouts, transport.CounterChecksumErrors,
			transport.CounterGiveUps, transport.CounterOverloads)
		obs.CollectGoRuntime(reg)
		obs.CollectBuildInfo(reg)
		obs.DrainingGauge(reg)
		if c.hot != nil {
			obs.CollectCache(reg, c.hot.Stats)
		}
	}

	if cfg.Tenants != "" || cfg.MaxConns > 0 || cfg.QueueDepth > 0 || cfg.FrontendWorkers > 0 {
		tenants, err := frontend.ParseTenants(cfg.Tenants)
		if err != nil {
			return nil, err
		}
		c.fe, err = frontend.New(frontend.Options{
			Tenants:    append(tenants, frontend.TenantConfig{Name: migrationTenant}),
			MaxConns:   cfg.MaxConns,
			QueueDepth: cfg.QueueDepth,
			Workers:    cfg.FrontendWorkers,
			Reg:        c.srvOpts.Metrics,
		})
		if err != nil {
			return nil, err
		}
		c.srvOpts.Admission = c.fe
		if cfg.MaxConns > 0 {
			// Raw accept-loop backstop a little above the front end's cap:
			// ordinary refusals come from the front end with the overloaded
			// wire status; the semaphore only stops a socket flood.
			c.srvOpts.MaxConns = cfg.MaxConns + 64
		}
	}
	if cfg.Chaos != nil {
		c.injector = faultnet.New(*cfg.Chaos)
	}

	// Listeners first: generation 1 needs the members' resolved addresses.
	members := make([]shardmap.Member, max(cfg.Owners, 1))
	addrs := append(slices.Clone(cfg.Addrs), make([]string, len(members))...)
	for i := range members {
		ln, m, err := c.listen(addrs[i])
		if err != nil {
			return nil, err
		}
		lns, members[i] = append(lns, ln), m
	}
	c.cur, err = shardmap.Uniform(c.lo, c.hi, members, shardmap.UniformOptions{Width: cfg.Width})
	if err != nil {
		return nil, err
	}
	for i, m := range members {
		if err := c.startOwner(lns[i], m.ID); err != nil {
			return nil, err
		}
	}
	c.gen.Set(float64(c.cur.Gen))

	if cfg.DebugAddr != "" {
		mux := obs.NewDebugMux(reg, nil)
		mux.HandleFunc("/admin/reshard", c.handleReshard)
		// Liveness stays /healthz inside the mux. Readiness answers 503
		// from the moment Close begins, so balancers steer away while
		// in-flight work finishes, and mid-migration: every request is
		// still answered then, but rolling operations should hold off.
		obs.AddReadyz(mux, func() (bool, string) {
			switch {
			case c.closing.Load():
				return false, "draining"
			case c.migrating.Load() > 0:
				return false, "migrating"
			}
			return true, ""
		})
		if c.rec != nil {
			mux.Handle("/debug/flightrecorder", c.rec.Handler())
		}
		if c.dbg, err = obs.StartDebugHandler(cfg.DebugAddr, mux); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// listen binds an owner's address (an ephemeral loopback port when addr is
// empty) and names the member that will serve on it.
func (c *Cluster) listen(addr string) (net.Listener, shardmap.Member, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, shardmap.Member{}, fmt.Errorf("serveboot: listen %s: %w", addr, err)
	}
	c.nextID++
	return ln, shardmap.Member{ID: fmt.Sprintf("owner-%d", c.nextID-1), Addr: ln.Addr().String()}, nil
}

// startOwner is how every owner of every cluster starts: its own shard
// map store seeded with the current generation, its chunk (preloaded with
// the shards it owns under that generation, unless the cluster serves
// lazily), and a TCP server on ln — behind the chaos injector and the
// front end when configured — that checks every request against the
// owner's live generation. The listener is the owner's from here on.
func (c *Cluster) startOwner(ln net.Listener, id string) error {
	st, err := shardmap.NewStore(c.cur, 0)
	if err != nil {
		ln.Close()
		return err
	}
	// Metrics bridge: shardmap stays stdlib-only; every applied
	// generation lands on the shared gauge here.
	st.OnApply = func(m *shardmap.Map, _ int) { c.gen.Set(float64(m.Gen)) }
	ch := &chunk{lo: c.lo, hi: c.hi, src: c.src, hot: c.hot, bounds: c.cur}
	if c.hot == nil {
		ch.shards = make([]*graph.Packed, len(c.cur.Shards))
		// A joining owner is not in the current map: it owns nothing yet
		// and migration fills it.
		if mi := c.cur.MemberIndex(id); mi >= 0 {
			var pk graph.Packer
			for i, sh := range c.cur.Shards {
				if !slices.Contains(sh.Owners, mi) {
					continue
				}
				if ch.shards[i], err = pk.Pack(sh.Lo, sh.Hi, c.src.AppendSample); err != nil {
					ln.Close()
					return fmt.Errorf("serveboot: preload for %s: %w", id, err)
				}
			}
		}
	}
	if c.injector != nil {
		ln = c.injector.Listener(ln)
	}
	o := &Owner{ID: id, addr: ln.Addr().String(), chunk: ch, maps: st}
	opts := c.srvOpts
	opts.ShardMap = mapView{st: st, id: id}
	o.srv = transport.ServeListener(ln, ch, opts)
	c.owners[id] = o
	c.order = append(c.order, id)
	return nil
}

// AddOwner joins a new owner: it boots empty under the current
// generation, the planner moves the minimum shards onto it, migration
// pulls those chunks while the old owners keep serving, and the next
// generation cuts over. Returns the new owner's ID.
func (c *Cluster) AddOwner() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing.Load() {
		return "", fmt.Errorf("serveboot: cluster is closed")
	}
	ln, m, err := c.listen("")
	if err != nil {
		return "", err
	}
	if err := c.startOwner(ln, m.ID); err != nil {
		return "", err
	}
	if err := c.transition(append(slices.Clone(c.cur.Members), m)); err != nil {
		// A failed join leaves no trace: an owner that listens and owns
		// nothing would make OwnerCount disagree with the published map.
		c.dropOwner(m.ID)
		return "", err
	}
	return m.ID, nil
}

// RemoveOwner drains an owner out of the cluster gracefully: its shards
// migrate to the survivors (pulled from it while it still serves), the
// next generation excludes it, and only then does it shut down.
func (c *Cluster) RemoveOwner(id string) error { return c.leave(id, false) }

// CrashOwner kills an owner abruptly (no drain, no handoff) and then
// heals the cluster: the planner promotes surviving replicas where it
// can, and orphaned shards are re-read from the durable source. Clients
// that were talking to the dead owner fail over / refresh and retry.
func (c *Cluster) CrashOwner(id string) error { return c.leave(id, true) }

func (c *Cluster) leave(id string, crash bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.owners[id]
	switch {
	case c.closing.Load():
		return fmt.Errorf("serveboot: cluster is closed")
	case o == nil:
		return fmt.Errorf("serveboot: unknown owner %q", id)
	case len(c.owners) == 1:
		return fmt.Errorf("serveboot: cannot remove the last owner")
	}
	if crash {
		o.crashed.Store(true)
		o.srv.Close() // abrupt: in-flight connections die mid-request
	}
	members := slices.DeleteFunc(slices.Clone(c.cur.Members), func(m shardmap.Member) bool { return m.ID == id })
	if err := c.transition(members); err != nil {
		return err
	}
	c.dropOwner(id)
	return nil
}

// dropOwner forgets an owner: out of the membership, its server closed,
// and the migration client that pulled from it closed with it — a later
// owner may bind the same ephemeral port and must not inherit a
// connection to a dead server.
func (c *Cluster) dropOwner(id string) {
	if o := c.owners[id]; o != nil {
		o.srv.Close()
	}
	delete(c.owners, id)
	c.order = slices.DeleteFunc(c.order, func(oid string) bool { return oid == id })
	if cl := c.pulls[id]; cl != nil {
		cl.Close()
		delete(c.pulls, id)
	}
}

// Reshard grows or shrinks the cluster to n owners, one membership
// transition at a time (shrinking removes the newest owners first).
func (c *Cluster) Reshard(n int) error {
	if n < 1 {
		return fmt.Errorf("serveboot: cannot reshard to %d owners", n)
	}
	for ids := c.OwnerIDs(); len(ids) != n; ids = c.OwnerIDs() {
		var err error
		if len(ids) < n {
			_, err = c.AddOwner()
		} else {
			err = c.RemoveOwner(ids[len(ids)-1])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// transition is the one membership change, run under the cluster lock:
// plan the next generation for members, pull every moved chunk to its
// gaining owner (old owners still serving), publish the generation to the
// gainers first and the rest after, then release the bytes the losers no
// longer own.
func (c *Cluster) transition(members []shardmap.Member) error {
	next, moves, err := shardmap.Planner{Width: c.cfg.Width}.Next(c.cur, members)
	if err != nil {
		return err
	}
	c.migrating.Add(1)
	defer c.migrating.Add(-1)
	start := time.Now()
	var bytes int64
	gainers := make(map[string]bool)
	for _, mv := range moves {
		gainers[mv.ToID] = true
		if c.hot != nil {
			continue // lazy: only ownership moves; the gainer faults in on first request
		}
		n, err := c.pullMove(mv, c.owners[mv.ToID]) // the planner targets members, and every member is an owner
		bytes += n
		if err != nil {
			return err
		}
	}
	// Gainers first: once an owner answers for a moved chunk it must hold
	// the bytes. Losers keep serving under the old generation until their
	// own apply, so the chunk never goes dark.
	for _, first := range []bool{true, false} {
		for id, o := range c.owners {
			if gainers[id] != first {
				continue
			}
			if _, err := o.maps.ApplyIfNewer(next); err != nil {
				return err
			}
		}
	}
	c.cur = next
	for id, o := range c.owners {
		if mi := next.MemberIndex(id); mi >= 0 {
			o.chunk.retainOwned(next, mi)
		}
	}
	c.moved.Add(int64(len(moves)))
	c.migB.Observe(float64(bytes))
	c.migS.Observe(time.Since(start).Seconds())
	return nil
}

// pullMove copies one moved shard onto its gaining owner, preferring the
// planned source owner, then any other live owner of the shard under the
// current generation, and finally the durable backing source (the only
// choice when every holder crashed, From = -1).
func (c *Cluster) pullMove(mv shardmap.Move, gainer *Owner) (int64, error) {
	var from []*Owner
	tried := map[string]bool{gainer.ID: true}
	consider := func(id string) {
		if o := c.owners[id]; o != nil && !tried[id] && !o.crashed.Load() {
			from = append(from, o)
		}
		tried[id] = true
	}
	consider(mv.FromID)
	if sh, err := c.cur.ShardOf(mv.Lo); err == nil {
		for _, oi := range sh.Owners {
			consider(c.cur.Members[oi].ID)
		}
	}
	var pk graph.Packer
	pk.Start(mv.Lo, mv.Hi)
	fail := func(err error) (int64, error) {
		return 0, fmt.Errorf("serveboot: migrate shard %d [%d,%d) to %s: %w", mv.Shard, mv.Lo, mv.Hi, gainer.ID, err)
	}
	ids := make([]int64, 0, migrateBatch)
	for lo := mv.Lo; lo < mv.Hi; lo += migrateBatch {
		ids = ids[:0]
		for id := lo; id < min(lo+migrateBatch, mv.Hi); id++ {
			ids = append(ids, id)
		}
		buf, raws, err := c.pullBatch(from, ids)
		if err == nil {
			// Copy the batch in and give the reply buffer back: the shard
			// pins its own bytes, not one pooled reply per batch.
			for _, raw := range raws {
				if err = pk.AddEncoded(raw); err != nil {
					break
				}
			}
			buf.Release()
			if err != nil {
				return fail(err)
			}
			continue
		}
		// Degrade to the durable source: a crash mid-migration means
		// re-reading, never losing, the chunk.
		for range ids {
			if err := pk.AddFrom(c.src.AppendSample); err != nil {
				return fail(err)
			}
		}
	}
	p, err := pk.Finish()
	if err != nil {
		return fail(err)
	}
	gainer.chunk.install(mv.Shard, p)
	return int64(len(p.Buf)), nil
}

// pullBatch fetches one id batch from the first candidate that answers.
// The caller releases the reply buffer the parts alias.
func (c *Cluster) pullBatch(from []*Owner, ids []int64) (*bufarena.Buf, [][]byte, error) {
	err := fmt.Errorf("no live owner holds the chunk")
	for _, o := range from {
		cl := c.pulls[o.ID]
		if cl == nil {
			if cl, err = transport.DialOptions(o.addr, transport.ClientOptions{
				Policy: c.cfg.Net, Tenant: migrationTenant, Counters: c.events,
			}); err != nil {
				continue
			}
			c.pulls[o.ID] = cl
		}
		var buf *bufarena.Buf
		var raws [][]byte
		if buf, raws, err = cl.GetBatchBufs(ids); err == nil {
			return buf, raws, nil
		}
	}
	return nil, nil, err
}

// handleReshard serves /admin/reshard?owners=N and reports the membership.
func (c *Cluster) handleReshard(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("owners"))
	if err != nil || n < 1 {
		http.Error(w, "reshard needs ?owners=N (N >= 1)", http.StatusBadRequest)
		return
	}
	if err := c.Reshard(n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": c.Generation(), "owners": c.OwnerIDs(), "addrs": c.Addrs()})
}

// Addr returns the first owner's data-plane address: a static server's own.
func (c *Cluster) Addr() string { return c.Addrs()[0] }

// Addrs returns the live owners' data-plane addresses in join order —
// the seed list for elastic clients.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.order))
	for _, id := range c.order {
		addrs = append(addrs, c.owners[id].addr)
	}
	return addrs
}

// Owner returns a live owner by ID, or nil.
func (c *Cluster) Owner(id string) *Owner {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.owners[id]
}

// OwnerIDs returns the live owner IDs in join order.
func (c *Cluster) OwnerIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.order)
}

// OwnerCount returns the live owner count.
func (c *Cluster) OwnerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.owners)
}

// Generation returns the cluster's published shard map generation.
func (c *Cluster) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Gen
}

// Range returns the keyspace [lo, hi) the cluster serves.
func (c *Cluster) Range() (lo, hi int64) { return c.lo, c.hi }

// Registry returns the cluster's shared metrics registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// DebugAddr returns the debug/admin endpoint address, or "" if disabled.
func (c *Cluster) DebugAddr() string {
	if c.dbg == nil {
		return ""
	}
	return c.dbg.Addr()
}

// CacheStats reports the lazy-mode cache's stats; ok is false in preload mode.
func (c *Cluster) CacheStats() (st cache.Stats, ok bool) {
	if c.hot == nil {
		return cache.Stats{}, false
	}
	return c.hot.Stats(), true
}

// FaultStats reports the chaos injector's tally; ok is false without Chaos.
func (c *Cluster) FaultStats() (st faultnet.Stats, ok bool) {
	if c.injector == nil {
		return faultnet.Stats{}, false
	}
	return c.injector.Stats(), true
}

// FrontendStats snapshots the serving front end; ok is false without one.
func (c *Cluster) FrontendStats() (st frontend.Stats, ok bool) {
	if c.fe == nil {
		return frontend.Stats{}, false
	}
	return c.fe.Stats(), true
}

// Close shuts every shape down in one order: /readyz answers 503 and the
// draining gauge goes to 1; with the front end enabled the cluster drains
// gracefully — listeners stay open so new connections and requests are
// refused with the overloaded/draining wire status, not a reset, while
// queued and in-flight work finishes (bounded by DrainTimeout) — then every
// owner's server stops, and the debug endpoint closes LAST so /metrics
// stays scrapeable through the whole drain. Opened dataset files are
// released at the end. Idempotent.
func (c *Cluster) Close() error {
	if c.closing.Swap(true) {
		return nil
	}
	// Membership is frozen from here on. Taking the lock once waits out a
	// transition in flight; the drain then runs without it, so Addrs and
	// the other accessors keep answering.
	c.mu.Lock()
	owners, pulls := c.owners, c.pulls
	c.mu.Unlock()
	if c.stopWatch != nil {
		c.stopWatch()
	}
	obs.DrainingGauge(c.reg).Set(1)
	if c.fe != nil {
		timeout := c.cfg.DrainTimeout
		if timeout == 0 {
			timeout = 5 * time.Second
		}
		c.fe.Drain(timeout)
		for _, o := range owners {
			o.srv.Drain(time.Second)
		}
	}
	for _, cl := range pulls {
		cl.Close()
	}
	var err error
	for _, o := range owners {
		if cerr := o.srv.Close(); err == nil {
			err = cerr
		}
	}
	if c.fe != nil {
		c.fe.Close()
	}
	if c.dbg != nil {
		c.dbg.Close()
	}
	if c.closer != nil {
		if cerr := c.closer(); err == nil {
			err = cerr
		}
	}
	return err
}
