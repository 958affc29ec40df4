package transport

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/shardmap"
	"ddstore/internal/trace"
)

// mapSource adapts a shardmap.Store to the server's ShardMapSource hook
// for one member, the same way serveboot does in production.
type mapSource struct {
	st *shardmap.Store
	id string
}

func (s *mapSource) Generation() uint64 { return s.st.Generation() }

func (s *mapSource) Owns(id int64) bool {
	m := s.st.Current()
	mi := m.MemberIndex(s.id)
	return mi >= 0 && m.OwnedBy(id, mi)
}

func (s *mapSource) Encoded() ([]byte, error) { return s.st.Encoded() }

// elasticPair boots two servers that each hold the full dataset [0,100)
// but own only their half under generation 1 of the shard map. Each
// server has its own map store (as real processes would); the returned
// apply function advances both to a given next generation.
func elasticPair(t *testing.T) (a, b *Server, stores [2]*shardmap.Store, apply func(*shardmap.Map)) {
	t.Helper()
	chunk := wireChunk(0, 100)
	servers := make([]*Server, 2)
	addrs := make([]string, 2)
	// Dial order problem: member addresses must be in the map before the
	// servers exist. Boot listeners first to learn the ports.
	for i := range servers {
		srv, err := Serve("127.0.0.1:0", chunk)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close() // only needed the port probe; real servers boot below
		addrs[i] = srv.Addr()
	}
	members := []shardmap.Member{{ID: "a", Addr: addrs[0]}, {ID: "b", Addr: addrs[1]}}
	m := &shardmap.Map{Gen: 1, Members: members, Shards: []shardmap.Shard{
		{Lo: 0, Hi: 50, Owners: []int{0}},
		{Lo: 50, Hi: 100, Owners: []int{1}},
	}}
	for i, id := range []string{"a", "b"} {
		st, err := shardmap.NewStore(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		srv, err := ServeWith(addrs[i], chunk, ServerOptions{ShardMap: &mapSource{st: st, id: id}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
	}
	apply = func(next *shardmap.Map) {
		for _, st := range stores {
			if ok, err := st.ApplyIfNewer(next); err != nil || !ok {
				t.Fatalf("apply generation %d: installed %t, %v", next.Gen, ok, err)
			}
		}
	}
	return servers[0], servers[1], stores, apply
}

func TestClientShardMapBootstrap(t *testing.T) {
	a, _, stores, _ := elasticPair(t)
	cl, err := Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := cl.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != stores[0].Generation() {
		t.Fatalf("bootstrap gen = %d, want %d", m.Gen, stores[0].Generation())
	}
	if len(m.Members) != 2 || m.Members[0].ID != "a" {
		t.Fatalf("bootstrap members = %+v", m.Members)
	}
}

// TestBareServerServesItsChunkMap: a server started without a shard map
// serves its own chunk as generation 1 — one member at its listen address
// owning exactly the chunk's range — and that map seeds an elastic group
// whose loads are byte-identical to the source.
func TestBareServerServesItsChunkMap(t *testing.T) {
	chunk := wireChunk(10, 30)
	srv, err := Serve("127.0.0.1:0", chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := cl.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	want := shardmap.Map{Gen: 1, Members: []shardmap.Member{{ID: srv.Addr(), Addr: srv.Addr()}},
		Shards: []shardmap.Shard{{Lo: 10, Hi: 30, Owners: []int{0}}}}
	if !reflect.DeepEqual(*m, want) {
		t.Fatalf("map = %+v, want %+v", *m, want)
	}

	g, err := NewElasticGroup([]string{srv.Addr()}, GroupOptions{Client: ClientOptions{Policy: fastPolicy()}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ids := []int64{29, 10, 17, 10, 23}
	views, _, err := g.LoadLazy(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		got := v.Graph().Encode()
		if !bytes.Equal(got, chunk.Encoded[ids[i]-chunk.Lo]) {
			t.Fatalf("sample %d is not byte-identical to the source", ids[i])
		}
	}
}

func TestStaleGenerationCarriesCurrentMap(t *testing.T) {
	a, _, stores, apply := elasticPair(t)
	cl, err := DialOptions(a.Addr(), ClientOptions{Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Owned sample: served normally.
	if _, err := GetGraph(cl, 10); err != nil {
		t.Fatal(err)
	}

	// Move a's shard away: gen 2 gives everything to b.
	next := stores[0].Current().Clone()
	next.Gen = 2
	next.Shards[0].Owners = []int{1}
	apply(next)

	_, err = GetGraph(cl, 10)
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("err = %v, want ErrStaleGeneration", err)
	}
	var serr *StaleGenerationError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *StaleGenerationError", err)
	}
	m, derr := shardmap.Decode(serr.MapBytes)
	if derr != nil {
		t.Fatalf("stale payload does not decode: %v", derr)
	}
	if m.Gen != 2 {
		t.Fatalf("stale payload gen = %d, want 2", m.Gen)
	}
	// Batched ops answer stale the same way, and the connection stays
	// usable for owned samples afterwards.
	if _, err := cl.GetBatchRaw([]int64{10, 11}); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("batch err = %v, want ErrStaleGeneration", err)
	}
}

// cutoverChunk serves wireChunk(0, 100) until its first read, which
// applies next to st and then fails: a cutover that lands after the
// server's ownership check, its shard dropped before the read.
type cutoverChunk struct {
	*MemChunk
	st   *shardmap.Store
	next atomic.Pointer[shardmap.Map]
}

func (c *cutoverChunk) LocalSampleBytes(id int64) ([]byte, error) {
	if _, err := c.st.ApplyIfNewer(c.next.Load()); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("sample %d not resident on this owner", id)
}

// TestSampleDroppedAfterOwnershipCheckIsStale: a sample whose shard moves
// away between the ownership check and the read is answered with the new
// map, which the client retries under; a read that fails while the sample
// is still owned stays a hard error.
func TestSampleDroppedAfterOwnershipCheckIsStale(t *testing.T) {
	m := &shardmap.Map{Gen: 1, Members: []shardmap.Member{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}},
		Shards: []shardmap.Shard{{Lo: 0, Hi: 50, Owners: []int{0}}, {Lo: 50, Hi: 100, Owners: []int{1}}}}
	st, err := shardmap.NewStore(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := m.Clone()
	next.Gen = 2
	next.Shards[0].Owners = []int{1}
	src := &cutoverChunk{MemChunk: wireChunk(0, 100), st: st}
	src.next.Store(m)
	srv, err := ServeWith("127.0.0.1:0", src, ServerOptions{ShardMap: &mapSource{st: st, id: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialOptions(srv.Addr(), ClientOptions{Policy: fastPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Still owned (the "cutover" reapplies generation 1): a hard error.
	if _, err := GetGraph(cl, 10); err == nil || errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("err = %v, want a hard error", err)
	}
	src.next.Store(next)
	_, err = GetGraph(cl, 10)
	var serr *StaleGenerationError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want ErrStaleGeneration", err)
	}
	if got, derr := shardmap.Decode(serr.MapBytes); derr != nil || got.Gen != 2 {
		t.Fatalf("stale payload = %+v, %v; want generation 2", got, derr)
	}
}

func TestElasticGroupBootstrapAndLoad(t *testing.T) {
	a, _, _, _ := elasticPair(t)
	g, err := NewElasticGroup([]string{a.Addr()}, GroupOptions{Client: ClientOptions{Policy: fastPolicy()}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1", g.Generation())
	}
	if g.Len() != 100 {
		t.Fatalf("Len = %d, want 100", g.Len())
	}
	// Ids spanning both owners: the second owner is dialed on demand from
	// the bootstrapped map.
	ids := []int64{5, 55, 10, 95}
	gs, _, err := loadGraphs(g, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if gs[i].ID != id {
			t.Fatalf("slot %d: got %d, want %d", i, gs[i].ID, id)
		}
	}
}

func TestElasticGroupRefreshesOnStaleGeneration(t *testing.T) {
	a, _, stores, apply := elasticPair(t)
	prof := trace.New()
	g, err := NewElasticGroup([]string{a.Addr()}, GroupOptions{
		Client: ClientOptions{Policy: fastPolicy(), Counters: prof},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// The cluster reshards while the client still routes gen 1: shard
	// [0,50) moves from a to b.
	next := stores[0].Current().Clone()
	next.Gen = 2
	next.Shards[0].Owners = []int{1}
	apply(next)

	// The group's first touch of the moved range hits a, gets the stale
	// status with gen 2 attached, refreshes, and retries b — one logical
	// load, zero client-visible errors, zero failovers (the peer was
	// healthy, just no longer the owner).
	gs, _, err := loadGraphs(g, []int64{10})
	if err != nil {
		t.Fatalf("load across a generation bump failed: %v", err)
	}
	gr := gs[0]
	if gr.ID != 10 {
		t.Fatalf("got sample %d, want 10", gr.ID)
	}
	if g.Generation() != 2 {
		t.Fatalf("group generation = %d, want 2 after refresh", g.Generation())
	}
	if got := prof.Counter(CounterStaleRefreshes); got < 1 {
		t.Fatalf("stale refreshes = %d, want >= 1", got)
	}
	if got := prof.Counter(CounterFailovers); got != 0 {
		t.Fatalf("failovers = %d, want 0 (stale is not a failover)", got)
	}
	// Later loads route straight to the new owner: no further refreshes.
	before := prof.Counter(CounterStaleRefreshes)
	if _, _, err := loadGraphs(g, []int64{20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if got := prof.Counter(CounterStaleRefreshes); got != before {
		t.Fatalf("stale refreshes grew %d -> %d on a fresh map", before, got)
	}
}

func TestElasticGroupBootstrapFailure(t *testing.T) {
	_, err := NewElasticGroup(nil, GroupOptions{})
	if err == nil {
		t.Fatal("no seeds accepted")
	}
	// A seed nothing listens at cannot bootstrap the map.
	srv, serr := Serve("127.0.0.1:0", wireChunk(0, 10))
	if serr != nil {
		t.Fatal(serr)
	}
	srv.Close()
	_, err = NewElasticGroup([]string{srv.Addr()}, GroupOptions{Client: ClientOptions{Policy: fastPolicy()}})
	if err == nil || !strings.Contains(err.Error(), "bootstrap failed") {
		t.Fatalf("err = %v, want bootstrap failure", err)
	}
}

// TestStaticGroupTokensDeriveFromGeneration pins the satellite fix: owner
// tokens are packed from the shard map generation rather than the old
// replica*stride+member arithmetic, and unpack back to the generation the
// load was planned under.
func TestStaticGroupTokensDeriveFromGeneration(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g, err := NewGroup([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tok, err := groupPlane{g: g}.OwnerOf(7)
	if err != nil {
		t.Fatal(err)
	}
	gen, member, err := shardmap.UnpackOwner(tok)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || member != 0 {
		t.Fatalf("token (gen,member) = (%d,%d), want (1,0)", gen, member)
	}
	if _, err := (groupPlane{g: g}).OwnerOf(99); err == nil {
		t.Fatal("out-of-range id resolved")
	}
}

// TestStaticGroupPinsGenerationAcrossMidFlightApply drives an owner's
// transfer with a token whose generation has been superseded, both as an
// issued first Collect and as a deferred second one: the fetch must resolve
// against the pinned generation from the store's history, not the new
// current map.
func TestStaticGroupPinsGenerationAcrossMidFlightApply(t *testing.T) {
	a, _, _, _ := elasticPair(t)
	g, err := NewElasticGroup([]string{a.Addr()}, GroupOptions{Client: ClientOptions{Policy: fastPolicy()}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Plan a token under gen 1, then advance the client's own map before
	// the fetch happens — the moved shard stays readable because servers
	// only answer stale once THEY cut over, and the pinned map still
	// routes to a live owner.
	tok, err := groupPlane{g: g}.OwnerOf(10)
	if err != nil {
		t.Fatal(err)
	}
	next := g.maps.Current().Clone()
	next.Gen = 2
	if ok, err := g.maps.ApplyIfNewer(next); err != nil || !ok {
		t.Fatalf("apply generation 2: installed %t, %v", ok, err)
	}
	for _, again := range []bool{false, true} {
		got := map[int64]bool{}
		pd := &fetch.Pending{Owner: tok, IDs: []int64{11, 10}, Again: again}
		if !again {
			groupPlane{g: g}.Issue(pd)
		}
		err = groupPlane{g: g}.Collect(pd, func(id int64, raw []byte, ref graph.Ref, lat time.Duration) error {
			got[id] = true
			ref.Release()
			return nil
		})
		if err != nil {
			t.Fatalf("again=%t: pinned-generation fetch failed: %v", again, err)
		}
		if !got[10] || !got[11] {
			t.Fatalf("again=%t: delivered = %v, want ids 10 and 11", again, got)
		}
	}
}
