package transport

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/health"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/shardmap"
)

// GroupOptions configure a Group's clients and failover behaviour.
type GroupOptions struct {
	// Client configures every peer connection (policy, counters, dialer).
	Client ClientOptions
	// FailoverCooldown quarantines a peer after it exhausts its retries:
	// for this long the group prefers other replicas for that peer's range
	// instead of paying the full retry schedule against a dead host on
	// every Get. Quarantined peers are still tried as a last resort.
	// Default 1s; negative disables quarantine.
	FailoverCooldown time.Duration
	// MaxBatch caps how many samples one multi-get request carries.
	// Default 64; the protocol limit is 4096.
	MaxBatch int
	// CacheBytes, if positive, adds a byte-budgeted cache over fetched
	// sample bytes: repeat loads of a cached id cost no round trip, and
	// concurrent misses for one id are coalesced into a single fetch.
	CacheBytes int64
	// Metrics, when non-nil, receives the engine's fetch-latency histogram.
	Metrics *obs.Registry
	// Spans, when non-nil, receives per-owner fetch spans for the Chrome
	// trace.
	Spans *obs.SpanRing
}

// Group is a set of chunk servers holding the dataset — the cross-process
// analogue of DDStore's replica groups. Ownership routes through a
// versioned shard map (internal/shardmap): the static constructors freeze
// the dialed topology into generation 1, while NewElasticGroup bootstraps
// the map from a seed peer and follows it through live resharding —
// stale-generation responses install the newer map carried in the reply
// and re-route, so a migrated chunk costs one extra round trip, never a
// failover or a hard error.
type Group struct {
	counters Counters
	maxBatch int
	cache    *cache.Cache // nil when CacheBytes <= 0
	// engine is the shared batch-load pipeline (internal/fetch); the group
	// plugs in as its TCP plane via groupPlane. Owner tokens pack
	// (generation, member index) — shardmap.PackOwner — so tokens sort
	// like (generation, member) pairs and an in-flight fetch stays pinned
	// to the generation it was planned under.
	engine *fetch.Engine
	// maps is the versioned ownership view; health quarantines peers by
	// stable member ID across generations.
	maps       *shardmap.Store
	health     *health.Tracker[string]
	clientOpts ClientOptions
	spans      *obs.SpanRing // nil without GroupOptions.Spans
	elastic    bool

	mu sync.Mutex
	// clients holds the connections by peer address, dialed on first use.
	// Close sets it to nil, which latches the group closed: no later load
	// dials again.
	clients map[string]*Client
}

// newGroup builds the pieces every constructor shares.
func newGroup(opts GroupOptions) *Group {
	g := &Group{
		counters:   opts.Client.Counters,
		maxBatch:   opts.MaxBatch,
		clientOpts: opts.Client,
		health:     health.NewTracker[string](opts.FailoverCooldown),
		spans:      opts.Spans,
		clients:    map[string]*Client{},
	}
	if g.counters == nil {
		g.counters = nopCounters{}
	}
	if g.maxBatch <= 0 {
		g.maxBatch = 64
	}
	if g.maxBatch > maxBatchIDs {
		g.maxBatch = maxBatchIDs
	}
	if opts.CacheBytes > 0 {
		g.cache = cache.New(cache.Options{
			MaxBytes: opts.CacheBytes,
			Counters: g.counters,
		})
	}
	return g
}

func (g *Group) initEngine(opts GroupOptions) {
	g.engine = fetch.New(fetch.Config{
		Plane:     groupPlane{g: g},
		Cache:     g.cache,
		ErrPrefix: "transport",
		Metrics:   opts.Metrics,
		Spans:     opts.Spans,
	})
}

// staticPeer is one dialed peer while a static topology is being frozen
// into its generation-1 map.
type staticPeer struct {
	addr   string
	lo, hi int64
}

// NewGroupReplicas dials one address list per replica group. Each peer's
// range is the keyspace of the shard map it serves, and every replica must
// tile the same contiguous sample range (chunk boundaries may differ
// between replicas). The topology is frozen into a generation-1 shard map:
// chunk boundaries across all replicas refine the keyspace into shards,
// each owned by one member per replica, ordered by replica — so replica
// preference (sample id modulo replica count) and failover order are
// exactly what the static arithmetic produced.
func NewGroupReplicas(replicas [][]string, opts GroupOptions) (*Group, error) {
	if len(replicas) == 0 {
		return nil, errors.New("transport: no replicas given")
	}
	g := newGroup(opts)
	var sets [][]staticPeer
	for ri, addrs := range replicas {
		var set []staticPeer
		for _, addr := range addrs {
			cl, err := g.clientFor(addr)
			if err != nil {
				g.Close()
				return nil, err
			}
			m, err := cl.ShardMap()
			if err != nil {
				g.Close()
				return nil, err
			}
			lo, hi := m.Range()
			set = append(set, staticPeer{addr: addr, lo: lo, hi: hi})
		}
		for i := 1; i < len(set); i++ {
			if set[i].lo != set[i-1].hi {
				g.Close()
				return nil, fmt.Errorf("transport: chunk gap in replica %d: peer %d starts at %d, previous ends at %d",
					ri, i, set[i].lo, set[i-1].hi)
			}
		}
		sets = append(sets, set)
	}
	for ri, set := range sets[1:] {
		if len(set) == 0 || len(sets[0]) == 0 {
			continue
		}
		lo, hi := set[0].lo, set[len(set)-1].hi
		lo0, hi0 := sets[0][0].lo, sets[0][len(sets[0])-1].hi
		if lo != lo0 || hi != hi0 {
			g.Close()
			return nil, fmt.Errorf("transport: replica %d spans [%d,%d), replica 0 spans [%d,%d)",
				ri+1, lo, hi, lo0, hi0)
		}
	}
	m, err := staticMap(sets)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.maps, err = shardmap.NewStore(m)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.initEngine(opts)
	return g, nil
}

// staticMap freezes a dialed static topology into generation 1: the union
// of every replica's chunk boundaries refines the keyspace into shards on
// which each replica's owner is constant, and each shard's owner list is
// ordered by replica index.
func staticMap(sets [][]staticPeer) (*shardmap.Map, error) {
	m := &shardmap.Map{Gen: 1}
	offset := make([]int, len(sets))
	for ri, set := range sets {
		offset[ri] = len(m.Members)
		for mi, p := range set {
			m.Members = append(m.Members, shardmap.Member{
				ID:   fmt.Sprintf("r%d/%d@%s", ri, mi, p.addr),
				Addr: p.addr,
			})
		}
	}
	boundSet := map[int64]bool{}
	for _, set := range sets {
		for _, p := range set {
			boundSet[p.lo] = true
			boundSet[p.hi] = true
		}
	}
	bounds := make([]int64, 0, len(boundSet))
	for b := range boundSet {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		owners := make([]int, 0, len(sets))
		for ri, set := range sets {
			mi := -1
			for j, p := range set {
				if lo >= p.lo && lo < p.hi {
					mi = j
					break
				}
			}
			if mi < 0 {
				return nil, fmt.Errorf("transport: no peer holds sample %d", lo)
			}
			owners = append(owners, offset[ri]+mi)
		}
		m.Shards = append(m.Shards, shardmap.Shard{Lo: lo, Hi: hi, Owners: owners})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// NewElasticGroup joins an elastic cluster: the shard map is bootstrapped
// from the first seed address that serves one, and every load routes
// through the live generation from then on. New owners published by later
// generations are dialed on demand; stale-generation responses refresh
// the map in place.
func NewElasticGroup(seeds []string, opts GroupOptions) (*Group, error) {
	if len(seeds) == 0 {
		return nil, errors.New("transport: no seed addresses given")
	}
	g := newGroup(opts)
	var lastErr error
	for _, addr := range seeds {
		cl, err := g.clientFor(addr)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := cl.ShardMap()
		if err != nil {
			lastErr = err
			continue
		}
		st, err := shardmap.NewStore(m)
		if err != nil {
			lastErr = err
			continue
		}
		g.maps = st
		g.elastic = true
		g.initEngine(opts)
		return g, nil
	}
	g.Close()
	return nil, fmt.Errorf("transport: shard map bootstrap failed on all %d seeds: %w", len(seeds), lastErr)
}

// clientFor returns the connection to addr, dialing it on first use, or
// ErrClosed once the group is closed.
func (g *Group) clientFor(addr string) (*Client, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.clients == nil {
		return nil, ErrClosed
	}
	if cl, ok := g.clients[addr]; ok {
		return cl, nil
	}
	cl, err := DialOptions(addr, g.clientOpts)
	if err != nil {
		return nil, err
	}
	g.clients[addr] = cl
	return cl, nil
}

// Close releases all connections of all replicas, and every later load
// fails with ErrClosed instead of dialing. It closes the clients after
// letting go of g.mu: a client's Close waits for the request in flight on
// it, and a load holding one issued client may be waiting on g.mu to issue
// its next owner.
func (g *Group) Close() {
	g.mu.Lock()
	clients := g.clients
	g.clients = nil
	g.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
}

// Len returns the total number of samples in the dataset.
func (g *Group) Len() int {
	lo, hi := g.maps.Current().Range()
	return int(hi - lo)
}

// Range returns the [lo, hi) sample keyspace of the current generation.
func (g *Group) Range() (int64, int64) {
	return g.maps.Current().Range()
}

// refreshFromSurvivors polls the current generation's members — skipping
// the ones that just failed at the transport level — for a newer shard
// map and installs the first one found. A crashed owner cannot answer
// with a stale-generation status (it cannot answer at all), so when every
// replica of a chunk is unreachable the survivors are the only source of
// the generation that routed around the crash. Returns whether a newer
// map was installed.
func (g *Group) refreshFromSurvivors(down []int) bool {
	m := g.maps.Current()
	for mi := range m.Members {
		if slices.Contains(down, mi) || m.Members[mi].Addr == "" {
			continue
		}
		cl, err := g.clientFor(m.Members[mi].Addr)
		if err != nil {
			continue
		}
		nm, err := cl.ShardMap()
		if err != nil {
			continue
		}
		if ok, aerr := g.maps.ApplyIfNewer(nm); aerr == nil && ok {
			g.counters.Inc(CounterStaleRefreshes, 1)
			return true
		}
	}
	return false
}

// LoadLazyTraced fetches a batch of samples (any order), like
// core.Store.LoadLazyTraced but over TCP, and returns them in request order
// as header-validated graph.Lazy views over their pooled wire buffers, with
// per-position wall-clock fetch latencies. The caller owns the views —
// materialize via Graph() or Release() each one. Cache hits are served from
// memory; misses are grouped by their preferred replica and owning peer,
// fetched maxBatch ids per round trip, and failed over to the owners in
// other replicas when a peer is unreachable or serves corrupt bytes.
// Concurrent loads claiming the same missing id coalesce into one fetch via
// the cache's flight table. The whole pipeline runs in the shared engine
// (internal/fetch); this file contributes only the TCP wire: replica
// preference, suspect/cooldown failover, stale-generation refresh, and
// OpGetBatch chunking.
//
// tc is the caller's span in a distributed trace, and the zero Context
// means untraced: each per-owner fan-out propagates a child context over
// the wire (when GroupOptions.Client.Tracing is set), and the servers'
// timing trailers come back as "server" category spans in the group's span
// ring, nested inside the request window.
func (g *Group) LoadLazyTraced(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	return g.engine.LoadLazy(ids, tc)
}

// LoadLazy is LoadLazyTraced without a trace.
func (g *Group) LoadLazy(ids []int64) ([]*graph.Lazy, []time.Duration, error) {
	return g.LoadLazyTraced(ids, tracectx.Context{})
}

// groupPlane adapts the Group to the shared fetch engine. The owner token
// packs (generation, preferred member index); nothing is ever local to a
// TCP client, so every id goes through the cache and the wire.
type groupPlane struct {
	g *Group
}

func (p groupPlane) OwnerOf(id int64) (int, error) {
	m := p.g.maps.Current()
	mi, err := m.PreferredOwner(id)
	if err != nil {
		return 0, fmt.Errorf("transport: no peer holds sample %d", id)
	}
	return shardmap.PackOwner(m.Gen, mi)
}

func (p groupPlane) Local(int) bool { return false }

// pinned returns the map owner's token was planned under and its member,
// or, once that generation has aged out of the history, the current map and
// member -1: the ids must then be re-resolved (the stale-generation protocol
// corrects any misroute).
func (p groupPlane) pinned(owner int) (*shardmap.Map, int, error) {
	gen, mi, err := shardmap.UnpackOwner(owner)
	if err != nil {
		return nil, 0, err
	}
	if m := p.g.maps.At(gen); m != nil {
		return m, mi, nil
	}
	return p.g.maps.Current(), -1, nil
}

// Issue writes the owner's first maxBatch ids, sorted in place, to the
// member its token prefers, and parks that member's client, request in
// flight, in pd.State. Taking the client with TryLock means Issue never
// waits on a connection: a client another request holds, a member in
// cooldown (the first failover pass would skip it too), a failed dial or an
// aged-out token leave the owner to the second Collect.
func (p groupPlane) Issue(pd *fetch.Pending) {
	g := p.g
	m, mi, err := p.pinned(pd.Owner)
	if err != nil || mi < 0 || g.health.InCooldown(m.Members[mi].ID) {
		return
	}
	cl, err := g.clientFor(m.Members[mi].Addr)
	if err != nil || !cl.mu.TryLock() {
		return
	}
	slices.Sort(pd.IDs)
	want := pd.IDs[:min(len(pd.IDs), g.maxBatch)]
	began := time.Now()
	cl.begin(opGetBatch, int64(len(want)), 0, want, pd.Trace)
	cl.call.began = began
	pd.State = cl
}

// Collect finishes an owner's transfer. The first reads the reply to
// Issue's request, the client's retries on that connection included,
// delivers it and releases the client; a failed pass stays in pd.State.
// The second fetches the ids still undelivered in maxBatch chunks with
// failover (fetchChunk), starting after that pass, and holds no connection
// while it waits for one.
func (p groupPlane) Collect(pd *fetch.Pending, deliver fetch.Deliver) error {
	g := p.g
	m, mi, err := p.pinned(pd.Owner)
	if !pd.Again {
		cl, issued := pd.State.(*Client)
		if !issued {
			return nil
		}
		pd.State = nil
		want, began := cl.call.ids, cl.call.began
		buf, timing, err := cl.finish()
		cl.mu.Unlock()
		if mi < 0 { // aged out since Issue: the second Collect re-resolves
			if err == nil {
				buf.Release()
			}
			return nil
		}
		var raws [][]byte
		if err == nil {
			raws, err = batchParts(buf, len(want))
		}
		if timing != nil {
			g.recordServerSpans(pd.Trace, timing, m, mi, want)
		}
		var st passState
		if g.settle(&st, m, mi, want, nil, buf, raws, err, time.Since(began)/time.Duration(len(want)), deliver) < len(want) {
			failed := st
			pd.State = &failed
		}
		return nil
	}
	if err != nil {
		return err
	}
	first, _ := pd.State.(*passState)
	ids := pd.IDs
	slices.Sort(ids)
	for len(ids) > 0 {
		n := min(len(ids), g.maxBatch)
		if err := g.fetchChunk(m, ids[:n], deliver, 0, pd.Trace, first); err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// maxStaleRetries bounds how many times one chunk re-resolves against a
// freshly installed generation before giving up — each retry only happens
// after a server proved the routing stale, so two hops cover any
// transition that completes while the chunk is in flight.
const maxStaleRetries = 2

// passState is what a chunk's failover passes carry from one to the next,
// and what a first Collect's failed pass hands the second.
type passState struct {
	stale bool  // a server proved the routing stale; its newer map is installed
	down  []int // members that failed at the transport level
	err   error // the last failure, for the error the chunk gives up with
}

// pick is one id of a chunk on one failover pass.
type pick struct {
	member int // this pass's choice; -1 when the id's shard has no such owner
	id     int64
	got    bool // delivered
}

// route points every pick at its id's k-th choice member and returns the
// widest shard it saw. Shard boundaries (and widths) may differ across a
// chunk; a sorted chunk pays one shard lookup per shard, not per id.
func route(m *shardmap.Map, picks []pick, k int) (width int, err error) {
	var sh *shardmap.Shard
	for j := range picks {
		id := picks[j].id
		if sh == nil || id < sh.Lo || id >= sh.Hi {
			if sh, err = m.ShardOf(id); err != nil {
				return 0, fmt.Errorf("transport: no peer holds sample %d", id)
			}
		}
		width = max(width, sh.Width())
		picks[j].member = -1
		if k < sh.Width() {
			picks[j].member = sh.Choice(id, k)
		}
	}
	return width, nil
}

// fetchChunk fetches one owner-grouped chunk of at most maxBatch ids,
// sorted ascending, against the given generation, starting at each id's
// preferred owner (or after first, a failed pass already made there) and
// failing the still-missing ids over to the other owners of their shard.
// Quarantined peers are deferred to a last-resort round of passes. A
// stale-generation response installs the newer map carried in the reply
// and re-resolves the leftovers against it. ids is reordered in place: each
// pass lists the leftovers there member by member, so a request's ids are a
// sub-slice of it — the whole of it, untouched, for a healthy chunk.
func (g *Group) fetchChunk(m *shardmap.Map, ids []int64, deliver fetch.Deliver, depth int, tc tracectx.Context, first *passState) error {
	total := len(ids)
	missing := make([]pick, total)
	for i, id := range ids {
		missing[i].id = id
	}
	width, err := route(m, missing, 0)
	if err != nil {
		return err
	}
	var st passState
	pass := 0
	if first != nil {
		st, pass = *first, 1
	}
	for ; pass < 2*width && len(missing) > 0; pass++ {
		lastResort := pass >= width
		if pass > 0 {
			route(m, missing, pass%width) // cannot fail: pass 0 found every id's shard
		}
		// Group the leftovers by member, members and ids ascending.
		slices.SortFunc(missing, func(a, b pick) int {
			if c := cmp.Compare(a.member, b.member); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		ids = ids[:len(missing)]
		for j, p := range missing {
			ids[j] = p.id
		}
		for lo, hi := 0, 0; lo < len(missing); lo = hi {
			mi := missing[lo].member
			hi = lo + 1
			for hi < len(missing) && missing[hi].member == mi {
				hi++
			}
			if mi < 0 {
				continue
			}
			memID := m.Members[mi].ID
			if g.health.InCooldown(memID) != lastResort {
				continue
			}
			run, want := missing[lo:hi], ids[lo:hi]
			cl, err := g.clientFor(m.Members[mi].Addr)
			if err != nil {
				st.err = err
				st.down = append(st.down, mi)
				g.health.MarkSuspect(memID)
				continue
			}
			before := time.Now()
			buf, raws, timing, err := cl.GetBatchBufsTraced(want, tc)
			per := time.Since(before) / time.Duration(len(want))
			if timing != nil {
				g.recordServerSpans(tc, timing, m, mi, want)
			}
			if n := g.settle(&st, m, mi, want, run, buf, raws, err, per, deliver); n > 0 && pass > 0 {
				g.counters.Inc(CounterFailovers, int64(n))
			}
		}
		missing = slices.DeleteFunc(missing, func(p pick) bool { return p.got })
	}
	if len(missing) > 0 {
		// A server that proved the routing stale already handed us the newer
		// map. When every replica died at the transport level instead — a
		// crashed owner can't answer stale — ask the surviving members for
		// the generation that routed around it. Either way the leftovers
		// re-resolve against the freshest installed map, bounded by depth.
		if depth < maxStaleRetries {
			refreshed := st.stale
			if !refreshed && g.elastic && len(st.down) > 0 {
				refreshed = g.refreshFromSurvivors(st.down)
			}
			if refreshed {
				left := ids[:len(missing)]
				for j, p := range missing {
					left[j] = p.id
				}
				slices.Sort(left)
				if tc.Valid() && g.spans != nil {
					// Mark the extra hop on the trace: the chunk re-resolved
					// against a newer generation mid-request.
					g.spans.Record(obs.Span{
						Name: "stale-retry", Cat: "fetch", Owner: -1,
						Samples: len(left), Start: obs.EpochNow(),
						TraceID: tc.TraceID, ParentID: tc.SpanID,
						Gen: g.maps.Generation(),
					})
				}
				return g.fetchChunk(g.maps.Current(), left, deliver, depth+1, tc, nil)
			}
		}
		return fmt.Errorf("transport: %d of %d samples failed on all %d replicas: %w",
			len(missing), total, width, st.err)
	}
	return nil
}

// settle books member mi's answer to a chunk request into st and returns
// how many samples it delivered (each marked got in run, when given). A
// reply clears the member, or suspects it for a corrupt sample; a failed
// request is an overload, a stale generation, a remote error, or a
// transport failure, which marks the member down and suspect.
func (g *Group) settle(st *passState, m *shardmap.Map, mi int, want []int64, run []pick,
	buf *bufarena.Buf, raws [][]byte, err error, per time.Duration, deliver fetch.Deliver) int {
	memID := m.Members[mi].ID
	if err != nil {
		st.err = err
		if errors.Is(err, ErrOverloaded) {
			// The peer is shedding load, not dying: leave its health alone
			// (the client already backed off) and let another replica try
			// the leftovers.
			return 0
		}
		var serr *StaleGenerationError
		if errors.As(err, &serr) {
			// The chunk moved: install the newer map the server sent along
			// and re-resolve after the failover passes. The peer is healthy
			// — no quarantine.
			st.stale = true
			if nm, derr := shardmap.Decode(serr.MapBytes); derr == nil {
				if ok, aerr := g.maps.ApplyIfNewer(nm); aerr == nil && ok {
					g.counters.Inc(CounterStaleRefreshes, 1)
				}
			}
			return 0
		}
		var rerr *RemoteError
		if !errors.As(err, &rerr) {
			// Transport-level failure: the peer may be down.
			st.down = append(st.down, mi)
			g.health.MarkSuspect(memID)
		}
		return 0
	}
	// Every delivered sample's view takes its own reference on the shared
	// response buffer (the engine's from the call on, accepted or not); ours
	// is dropped after the loop, so the buffer lives exactly as long as its
	// slowest consumer (cache entry, coalesced waiter, or first-touch decode).
	delivered := 0
	for j, id := range want {
		buf.Retain()
		if derr := deliver(id, raws[j], buf, per); derr != nil {
			// The frame passed CRC, so the peer is serving corrupt source
			// bytes: leave the id missing for another replica and avoid this
			// peer for a while.
			st.err = fmt.Errorf("transport: sample %d from member %s: %w", id, memID, derr)
			continue
		}
		delivered++
		if run != nil {
			run[j].got = true
		}
	}
	buf.Release()
	if delivered == len(want) {
		g.health.Clear(memID)
	} else {
		g.health.MarkSuspect(memID)
	}
	return delivered
}

// recordServerSpans merges one timing trailer into the span ring
// (ServerTiming.Spans has the layout), attributed to the owner and shard
// the client routed the chunk to and the generation the server served it
// under.
func (g *Group) recordServerSpans(tc tracectx.Context, t *ServerTiming, m *shardmap.Map, mi int, want []int64) {
	if g.spans == nil {
		return
	}
	base := obs.Span{Owner: mi, Samples: len(want)}
	if len(want) > 0 {
		if sh, err := m.ShardOf(want[0]); err == nil {
			base.ShardLo = sh.Lo
		}
	}
	g.spans.RecordAll(t.Spans(tc, base, obs.EpochNow())...)
}

// CacheStats returns the group's cache counters; the zero Stats when the
// group was built without a cache.
func (g *Group) CacheStats() cache.Stats {
	if g.cache == nil {
		return cache.Stats{}
	}
	return g.cache.Stats()
}
