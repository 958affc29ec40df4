package fetch

// The map-based pipeline LoadLazy ran until the slot table replaced it,
// kept verbatim as the engine's differential oracle (the pattern of
// internal/graph/reference_test.go): eight maps keyed by sample id per load,
// an owner map and a sort, fanned out over a worker pool with one worker per
// owner — the design the split-phase engine replaced. Only its edges moved
// with the plane contract: the reference validates a delivered sample's
// header itself, as the planes used to before handing it over, and calls
// Issue then Collect where it called the old one-call owner fetch, whose
// lock-epoch cost now lives in the plane. Its error path is the old one too,
// with the bug the slot table's fail fixed (follower claims and un-served
// hits are never given back), so the tests below compare what a failed load
// returns and calls, and hold only the new engine to balanced references.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/graph"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/vtime"
)

type refResults struct {
	mu      sync.Mutex
	lazies  map[int64]*graph.Lazy
	lats    map[int64]time.Duration
	flights map[int64]*cache.Flight // leader flights still to complete
}

func (r *refResults) deliver(id int64, raw []byte, lz *graph.Lazy, lat time.Duration) {
	r.mu.Lock()
	r.lazies[id] = lz
	r.lats[id] = lat
	f, flying := r.flights[id]
	if flying {
		delete(r.flights, id)
	}
	r.mu.Unlock()
	if flying {
		ref := cache.Ref(nil)
		if lr := lz.Ref(); lr != nil {
			lr.Retain()
			ref = lr
		}
		f.DeliverRef(raw, ref)
	}
}

func (r *refResults) set(id int64, lz *graph.Lazy, lat time.Duration) {
	r.mu.Lock()
	r.lazies[id] = lz
	r.lats[id] = lat
	r.mu.Unlock()
}

func (r *refResults) failRemaining(err error) {
	r.mu.Lock()
	flights := r.flights
	r.flights = nil
	r.mu.Unlock()
	for _, f := range flights {
		f.Fail(err)
	}
}

func (r *refResults) releaseAll() {
	r.mu.Lock()
	for _, lz := range r.lazies {
		lz.Release()
	}
	r.mu.Unlock()
}

func (e *Engine) referenceLoadLazy(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	out := make([]*graph.Lazy, len(ids))
	lats := make([]time.Duration, len(ids))
	if len(ids) == 0 {
		return out, lats, nil
	}

	uniq := make([]int64, 0, len(ids))
	owners := make(map[int64]int, len(ids))
	for _, id := range ids {
		if _, seen := owners[id]; seen {
			continue
		}
		owner, err := e.plane.OwnerOf(id)
		if err != nil {
			return nil, nil, err
		}
		owners[id] = owner
		uniq = append(uniq, id)
	}

	res := &refResults{
		lazies: make(map[int64]*graph.Lazy, len(uniq)),
		lats:   make(map[int64]time.Duration, len(uniq)),
	}

	type hit struct {
		val []byte
		ref cache.Ref
	}
	toFetch := uniq
	var resolved map[int64]hit
	var followers map[int64]*cache.Flight
	if e.cache != nil {
		toFetch = make([]int64, 0, len(uniq))
		for _, id := range uniq {
			if e.plane.Local(owners[id]) {
				toFetch = append(toFetch, id)
				continue
			}
			val, ref, f := e.cache.ClaimRef(id)
			switch {
			case f == nil:
				if resolved == nil {
					resolved = make(map[int64]hit)
				}
				resolved[id] = hit{val, ref}
			case f.Leader():
				if res.flights == nil {
					res.flights = make(map[int64]*cache.Flight)
				}
				res.flights[id] = f
				toFetch = append(toFetch, id)
			default:
				if followers == nil {
					followers = make(map[int64]*cache.Flight)
				}
				followers[id] = f
			}
		}
	}
	fail := func(err error) error {
		res.failRemaining(err)
		res.releaseAll()
		return err
	}

	for _, id := range uniq {
		h, ok := resolved[id]
		if !ok {
			continue
		}
		before := e.now()
		if e.onLocal != nil {
			e.onLocal(len(h.val))
		}
		lz, err := graph.DecodeLazy(h.val, h.ref)
		if err != nil {
			if h.ref != nil {
				h.ref.Release()
			}
			return nil, nil, fail(fmt.Errorf("%s: cached sample %d: %w", e.prefix, id, err))
		}
		res.set(id, lz, e.now()-before)
	}

	if len(toFetch) > 0 {
		byOwner := make(map[int][]int64)
		for _, id := range toFetch {
			byOwner[owners[id]] = append(byOwner[owners[id]], id)
		}
		keys := make([]int, 0, len(byOwner))
		for owner := range byOwner {
			keys = append(keys, owner)
		}
		sort.Ints(keys)
		if err := e.referenceForEachOwner(keys, byOwner, res, tc); err != nil {
			return nil, nil, fail(err)
		}
		for _, id := range toFetch {
			if _, ok := res.lazies[id]; !ok {
				return nil, nil, fail(fmt.Errorf("%s: sample %d was not delivered by its owner", e.prefix, id))
			}
		}
	}

	for _, id := range uniq {
		f, ok := followers[id]
		if !ok {
			continue
		}
		before := e.now()
		raw, ref, err := f.WaitRef()
		if err != nil {
			return nil, nil, fail(fmt.Errorf("%s: coalesced fetch of sample %d: %w", e.prefix, id, err))
		}
		if e.onLocal != nil {
			e.onLocal(len(raw))
		}
		lz, err := graph.DecodeLazy(raw, ref)
		if err != nil {
			if ref != nil {
				ref.Release()
			}
			return nil, nil, fail(fmt.Errorf("%s: coalesced sample %d: %w", e.prefix, id, err))
		}
		res.set(id, lz, e.now()-before)
	}

	if len(uniq) == len(ids) {
		for pos, id := range ids {
			out[pos] = res.lazies[id]
			lats[pos] = res.lats[id]
		}
	} else {
		taken := make(map[int64]bool, len(uniq))
		for pos, id := range ids {
			lz := res.lazies[id]
			if lz != nil && taken[id] {
				lz = lz.Clone()
			}
			taken[id] = true
			out[pos] = lz
			lats[pos] = res.lats[id]
		}
	}
	return out, lats, nil
}

func (e *Engine) referenceFetchOwner(owner int, ids []int64, res *refResults, tc tracectx.Context) error {
	deliver := func(id int64, raw []byte, ref graph.Ref, lat time.Duration) error {
		lz, err := graph.DecodeLazy(raw, ref)
		if err != nil {
			if ref != nil {
				ref.Release()
			}
			return err
		}
		res.deliver(id, raw, lz, lat)
		return nil
	}
	p := &Pending{Owner: owner, IDs: ids, Trace: tc.Child()}
	e.plane.Issue(p)
	return e.plane.Collect(p, deliver)
}

func (e *Engine) referenceForEachOwner(keys []int, byOwner map[int][]int64, res *refResults, tc tracectx.Context) error {
	par := len(keys)
	if par <= 1 {
		for _, owner := range keys {
			if err := e.referenceFetchOwner(owner, byOwner[owner], res, tc); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = e.referenceFetchOwner(keys[i], byOwner[keys[i]], res, tc)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// callLog is the recorded sequence of everything an engine asks of its
// plane, its cache and its clock.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// Inc makes the log a cache.Counters sink: every claim's outcome lands in
// the sequence where it happened.
func (l *callLog) Inc(name string, _ int64) { l.add("%s", name) }

// diffScenario is one seeded load: an id multiset with duplicates over
// local and remote owners, some ids already cached, some led by another
// load when this one claims them, and sometimes an owner that fails.
type diffScenario struct {
	ids      []int64
	owners   int
	local    int            // owner token that is local, -1 for none
	cached   map[int64]bool // in the cache before the load: hits
	led      map[int64]bool // led by someone else during the claim: followers
	ledFails bool           // the other load's fetch fails
	badOwner int            // owner whose transfer fails, -1 for none
	corrupt  bool           // it fails by delivering a truncated sample
	cost     time.Duration  // epoch cost per remote owner
}

func newDiffScenario(seed uint64) diffScenario {
	rng := vtime.NewRNG(seed)
	sc := diffScenario{
		owners: 4, local: -1, badOwner: -1,
		cached: map[int64]bool{}, led: map[int64]bool{},
		cost: time.Duration(rng.Intn(3)) * 7 * time.Microsecond,
	}
	if rng.Intn(2) == 0 {
		sc.local = rng.Intn(sc.owners)
	}
	n := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		sc.ids = append(sc.ids, int64(rng.Intn(48)))
	}
	for id := int64(0); id < 48; id++ {
		switch rng.Intn(5) {
		case 0:
			sc.cached[id] = true
		case 1:
			sc.led[id] = true
		}
	}
	// The other load's flights land when this load's first transfer starts,
	// so it must have one: its first id stays a plain miss.
	delete(sc.cached, sc.ids[0])
	delete(sc.led, sc.ids[0])
	switch rng.Intn(4) {
	case 0:
		sc.badOwner = rng.Intn(sc.owners)
		sc.corrupt = rng.Intn(2) == 0
	case 1:
		sc.ledFails = true
	}
	return sc
}

// diffPlane serves a scenario and logs every call.
type diffPlane struct {
	sc   diffScenario
	log  *callLog
	once sync.Once
	land func() // completes the flights the other load leads

	mu   sync.Mutex
	refs []*countRef
}

func (p *diffPlane) OwnerOf(id int64) (int, error) {
	p.log.add("OwnerOf %d", id)
	return int(id) % p.sc.owners, nil
}

func (p *diffPlane) Local(owner int) bool {
	p.log.add("Local %d", owner)
	return owner == p.sc.local
}

func (p *diffPlane) newRef() *countRef {
	ref := &countRef{}
	p.mu.Lock()
	p.refs = append(p.refs, ref)
	p.mu.Unlock()
	return ref
}

func (p *diffPlane) Issue(pd *Pending) {
	p.log.add("Issue %d %v", pd.Owner, pd.IDs)
}

// Collect charges a remote owner's lock-epoch cost to its first delivery,
// as the RMA plane does.
func (p *diffPlane) Collect(pd *Pending, deliver Deliver) error {
	owner, ids := pd.Owner, pd.IDs
	p.log.add("Collect %d %v", owner, ids)
	p.once.Do(p.land)
	var cost time.Duration
	if owner != p.sc.local {
		cost = p.sc.cost
	}
	for k, id := range ids {
		raw := testGraph(id).Encode()
		if owner == p.sc.badOwner && k == len(ids)/2 {
			if !p.sc.corrupt {
				return fmt.Errorf("diff: owner %d died at sample %d", owner, id)
			}
			raw = raw[:len(raw)-3]
		}
		if err := deliver(id, raw, p.newRef(), time.Duration(id)*time.Microsecond+cost); err != nil {
			return fmt.Errorf("diff: sample %d: %w", id, err)
		}
		cost = 0
	}
	return nil
}

// diffRun is one engine's side of a scenario.
type diffRun struct {
	log   callLog
	plane *diffPlane
	cache *cache.Cache
	e     *Engine

	lzs  []*graph.Lazy
	lats []time.Duration
	err  error
}

func runDiff(sc diffScenario, reference bool) *diffRun {
	r := &diffRun{}
	r.plane = &diffPlane{sc: sc, log: &r.log}
	r.cache = cache.New(cache.Options{MaxBytes: 1 << 20, Shards: 1, Counters: &r.log})
	var now atomic.Int64
	r.e = New(Config{
		Plane: r.plane, Cache: r.cache, ErrPrefix: "diff",
		Now: func() time.Duration { return time.Duration(now.Load()) },
		OnLocalBytes: func(n int) {
			r.log.add("local read %d", n)
			now.Add(int64(n))
		},
	})
	for id := range sc.cached {
		r.cache.PutRef(id, testGraph(id).Encode(), r.plane.newRef())
	}
	led := map[int64]*cache.Flight{}
	for id := range sc.led {
		_, _, led[id] = r.cache.ClaimRef(id)
	}
	r.plane.land = func() {
		for id, f := range led {
			if sc.ledFails {
				f.Fail(errors.New("diff: the other load failed"))
			} else {
				f.DeliverRef(testGraph(id).Encode(), r.plane.newRef())
			}
		}
	}
	r.log.calls = nil // the set-up's own claims are not the engine's
	if reference {
		r.lzs, r.lats, r.err = r.e.referenceLoadLazy(sc.ids, tracectx.Context{})
	} else {
		r.lzs, r.lats, r.err = r.e.LoadLazy(sc.ids, tracectx.Context{})
	}
	return r
}

// TestDifferentialAgainstReference runs seeded scenarios through the slot
// table and through the map-based reference and compares what a caller and
// a plane can see: positions, per-position latencies under a virtual clock,
// the error, the cache's counters, and the plane, cache and clock calls as a
// multiset: how calls to different owners interleave is the one thing the
// split-phase engine changed (the reference's workers interleave them as the
// scheduler runs them; run with -cpu 1,2,4). The slot table alone is then
// held to balanced buffer references, failed loads included.
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		sc := newDiffScenario(seed)
		got, want := runDiff(sc, false), runDiff(sc, true)

		if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
			t.Fatalf("seed %d: err = %v, reference %v", seed, got.err, want.err)
		}
		if !slices.Equal(got.lats, want.lats) {
			t.Fatalf("seed %d: latencies %v, reference %v", seed, got.lats, want.lats)
		}
		if len(got.lzs) != len(want.lzs) {
			t.Fatalf("seed %d: %d positions, reference %d", seed, len(got.lzs), len(want.lzs))
		}
		for pos := range got.lzs {
			g, w := got.lzs[pos].AppendTo(nil), want.lzs[pos].AppendTo(nil)
			if got.lzs[pos].ID() != sc.ids[pos] || string(g) != string(w) {
				t.Fatalf("seed %d: position %d holds sample %d, want %d", seed, pos, got.lzs[pos].ID(), sc.ids[pos])
			}
			got.lzs[pos].Release()
			want.lzs[pos].Release()
		}
		gl, wl := got.log.calls, want.log.calls
		slices.Sort(gl)
		slices.Sort(wl)
		if !slices.Equal(gl, wl) {
			t.Fatalf("seed %d: calls\n%q\nreference\n%q", seed, gl, wl)
		}
		if g, w := got.cache.Stats(), want.cache.Stats(); g != w {
			t.Fatalf("seed %d: cache %+v, reference %+v", seed, g, w)
		}

		// Every reference the load was handed or took is back once its views
		// are released and every cached id's entry is replaced by one that
		// holds no reference: no failed load strands one.
		for id := int64(0); id < 48; id++ {
			got.cache.PutRef(id, []byte{0}, nil)
		}
		for i, ref := range got.plane.refs {
			if ref.releases.Load() != ref.retains.Load()+1 {
				t.Fatalf("seed %d (err %v): buffer %d has %d retains and %d releases outstanding",
					seed, got.err, i, ref.retains.Load()+1, ref.releases.Load())
			}
		}
	}
}
