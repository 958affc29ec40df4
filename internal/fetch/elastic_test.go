package fetch

// Elastic-ownership conformance: the engine resolves OwnerOf once per Load,
// so a plane whose answers change between Loads (a shard map advancing
// under live traffic) must not poison the cache, leak coalesced flights,
// or skew the latency histogram. These tests drive a plane whose owner tokens
// carry a switchable generation, mirroring how the transport plane packs
// (generation, member) into the token.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/obs"
)

// genPlane serves ids [0, n) striped over members (member = id % members),
// with owner tokens derived from a switchable generation:
// token = gen<<8 | member. Advancing the generation changes every token,
// exactly like a shard map apply changes the transport plane's packed
// owner tokens between Loads.
type genPlane struct {
	n       int64
	members int
	gen     atomic.Int64
	local   atomic.Int64 // token whose samples are "local"; -1 for none

	failAll atomic.Bool   // every Collect errors
	entered chan struct{} // when non-nil, signaled once per Collect entry
	gateMu  sync.Mutex
	gate    chan error // when non-nil, the next Collect blocks on it once

	mu      sync.Mutex
	fetched map[int64]int // id -> times delivered by a fetch
	tokens  map[int]int   // owner token -> ids fetched through it
}

func newGenPlane(n int64, members int) *genPlane {
	p := &genPlane{n: n, members: members, fetched: map[int64]int{}, tokens: map[int]int{}}
	p.gen.Store(1)
	p.local.Store(-1)
	return p
}

func (p *genPlane) token(gen int64, member int) int { return int(gen)<<8 | member }

func (p *genPlane) OwnerOf(id int64) (int, error) {
	if id < 0 || id >= p.n {
		return 0, fmt.Errorf("gen: no owner for sample %d", id)
	}
	return p.token(p.gen.Load(), int(id)%p.members), nil
}

func (p *genPlane) Local(owner int) bool { return int64(owner) == p.local.Load() }

// takeGate claims the one-shot gate, so at most one in-flight Collect
// ever blocks on it (a second call proceeds normally).
func (p *genPlane) takeGate() chan error {
	p.gateMu.Lock()
	defer p.gateMu.Unlock()
	g := p.gate
	p.gate = nil
	return g
}

func (p *genPlane) Issue(*Pending) {}

func (p *genPlane) Collect(pd *Pending, deliver Deliver) error {
	if p.entered != nil {
		select {
		case p.entered <- struct{}{}:
		default:
		}
	}
	if g := p.takeGate(); g != nil {
		if err := <-g; err != nil {
			return err
		}
	}
	if p.failAll.Load() {
		return errors.New("gen: owner no longer holds these shards")
	}
	for _, id := range pd.IDs {
		raw := testGraph(id).Encode()
		if err := deliver(id, raw, nil, time.Duration(id)*time.Microsecond); err != nil {
			return err
		}
		p.mu.Lock()
		p.fetched[id]++
		p.tokens[pd.Owner]++
		p.mu.Unlock()
	}
	return nil
}

func (p *genPlane) fetchCount(id int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetched[id]
}

func (p *genPlane) tokenCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.tokens)
}

// loadAndCheck loads ids and verifies every returned graph carries its own
// id (the poison detector: a wrong cache mapping would surface here).
func loadAndCheck(t *testing.T, e *Engine, ids []int64) {
	t.Helper()
	out, _, err := loadGraphs(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range out {
		if g == nil {
			t.Fatalf("position %d (id %d): nil graph", i, ids[i])
		}
		if g.ID != ids[i] {
			t.Fatalf("position %d: got sample %d, want %d (cache poisoned?)", i, g.ID, ids[i])
		}
		if len(g.Y) != 1 || g.Y[0] != float32(ids[i]) {
			t.Fatalf("sample %d: wrong payload Y=%v", ids[i], g.Y)
		}
	}
}

func TestOwnerChangeBetweenLoadsKeepsCacheByID(t *testing.T) {
	// The cache is keyed by sample id, not by owner token: after the map
	// advances, a previously cached id is still a hit — same bytes, no
	// refetch through the new owner — and the payload stays correct.
	p := newGenPlane(20, 4)
	e := New(Config{Plane: p, Cache: newCache(1 << 20)})

	loadAndCheck(t, e, []int64{5, 6, 7})
	for _, id := range []int64{5, 6, 7} {
		if got := p.fetchCount(id); got != 1 {
			t.Fatalf("sample %d fetched %d times under generation 1, want 1", id, got)
		}
	}

	p.gen.Store(2) // every owner token changes
	loadAndCheck(t, e, []int64{5, 6, 7})
	for _, id := range []int64{5, 6, 7} {
		if got := p.fetchCount(id); got != 1 {
			t.Fatalf("sample %d refetched after owner change (count %d), want cache hit", id, got)
		}
	}

	// An uncached id under the new generation fetches through a new token.
	loadAndCheck(t, e, []int64{9})
	if got := p.fetchCount(9); got != 1 {
		t.Fatalf("sample 9 fetched %d times, want 1", got)
	}
}

func TestOwnerBecomesLocalBypassesCache(t *testing.T) {
	// A remote->local ownership transition (this process gained the shard)
	// must route reads to local memory, not the stale remote-cache entry.
	p := newGenPlane(20, 4)
	e := New(Config{Plane: p, Cache: newCache(1 << 20)})

	loadAndCheck(t, e, []int64{5}) // remote under generation 1, cached
	if got := p.fetchCount(5); got != 1 {
		t.Fatalf("fetch count %d, want 1", got)
	}

	p.gen.Store(3)
	p.local.Store(int64(p.token(3, 5%4))) // id 5's generation-3 owner is local
	loadAndCheck(t, e, []int64{5})
	if got := p.fetchCount(5); got != 2 {
		t.Fatalf("local read after ownership gain went to the cache (fetch count %d, want 2)", got)
	}
}

func TestOwnerChangeFailureFailsFlightsPromptly(t *testing.T) {
	// A fetch that dies because its owner moved mid-load must fail the
	// coalesced flights it leads: a concurrent follower returns the error
	// instead of hanging, and the next load of the same id starts a fresh
	// flight and succeeds.
	p := newGenPlane(10, 2)
	p.gen.Store(2)
	p.entered = make(chan struct{}, 1)
	gate := make(chan error)
	p.gateMu.Lock()
	p.gate = gate
	p.gateMu.Unlock()
	p.failAll.Store(true)
	e := New(Config{Plane: p, Cache: newCache(1 << 20)})

	errs := make(chan error, 2)
	go func() {
		_, _, err := loadGraphs(e, []int64{3})
		errs <- err
	}()
	<-p.entered // leader is inside Collect; its flight is claimed
	go func() {
		_, _, err := loadGraphs(e, []int64{3})
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the second load claim (follower)
	gate <- nil                       // unblock the leader; failAll makes its fetch die
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("load succeeded, want owner-moved error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("load hung: a coalesced flight leaked after the failed fetch")
		}
	}

	// Flight table is clean: a fresh load leads its own flight and succeeds.
	p.failAll.Store(false)
	loadAndCheck(t, e, []int64{3})
	if got := p.fetchCount(3); got != 1 {
		t.Fatalf("post-recovery fetch count %d, want 1", got)
	}
}

func TestLatencyWindowConsistentAcrossOwnerChange(t *testing.T) {
	// Every unique id loaded lands in the latency histogram exactly once per
	// load, whether its owner token is old or new — a repeated position adds
	// no observation, and the count never skews across a generation flip.
	p := newGenPlane(12, 3)
	reg := obs.NewRegistry()
	e := New(Config{Plane: p, Metrics: reg}) // no cache: the flip forces a clean refetch

	ids := make([]int64, 12)
	for i := range ids {
		ids[i] = int64(i)
	}
	loadAndCheck(t, e, append(ids, 0, 5))
	if got := latencyCount(reg); got != 12 {
		t.Fatalf("latency count after generation 1 = %d, want 12", got)
	}

	p.gen.Store(7) // generations may jump; tokens just need to be fresh
	loadAndCheck(t, e, ids)
	if got := latencyCount(reg); got != 24 {
		t.Fatalf("latency count after generation 7 = %d, want 24", got)
	}
	// Both generations' tokens were actually used for grouping: 3 member
	// tokens per generation, 2 generations.
	if got := p.tokenCount(); got != 6 {
		t.Fatalf("distinct owner tokens used = %d, want 6", got)
	}
}
