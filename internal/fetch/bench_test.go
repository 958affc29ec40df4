package fetch

import (
	"testing"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/obs/tracectx"
)

// benchPlane serves pre-encoded samples from four owners with no wire, so
// what a load costs here is the engine's own bookkeeping. With shared set,
// an owner's samples arrive as parts of one arena buffer, as a batch reply
// does; otherwise as GC-owned bytes.
type benchPlane struct {
	raw    [][]byte
	shared bool
}

func (p benchPlane) OwnerOf(id int64) (int, error) { return int(id % 4), nil }
func (p benchPlane) Local(int) bool                { return false }

func (p benchPlane) Issue(*Pending) {}

func (p benchPlane) Collect(pd *Pending, deliver Deliver) error {
	if !p.shared {
		for _, id := range pd.IDs {
			if err := deliver(id, p.raw[id], nil, time.Microsecond); err != nil {
				return err
			}
		}
		return nil
	}
	n := 0
	for _, id := range pd.IDs {
		n += len(p.raw[id])
	}
	buf := bufarena.Get(n)
	defer buf.Release()
	rest := buf.Bytes()
	for _, id := range pd.IDs {
		part := rest[:copy(rest, p.raw[id])]
		rest = rest[len(part):]
		buf.Retain()
		if err := deliver(id, part, buf, time.Microsecond); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkLoadLazy64 is the engine's allocation budget, stated per load and
// not per id: a 64-position load over four owners costs the same eight
// allocations whether its ids are all different (plain) or half of them
// repeats (duplicates) — the load, its two results, the view slab, the slot
// table, the index lists, the grouped ids and the deliver closure — and
// with a cache, cold, one more per miss: its flight (cached-cold; the
// cache's byte budget is zero so every load misses all 64). cached-warm
// is the steady state of a full cache fed by batch replies: each owner's
// samples arrive as parts of one arena buffer, loads alternate between two
// sets of 64 ids that the budget cannot hold together, so every load
// misses, copies each sample into a buffer of its own for the cache and
// evicts the other set, and every view is released. The replies and the
// copies come back from the arena's pools, so it costs what cached-cold
// does.
func BenchmarkLoadLazy64(b *testing.B) {
	p := benchPlane{raw: make([][]byte, 128)}
	for id := range p.raw {
		p.raw[id] = testGraph(int64(id)).Encode()
	}
	unique, repeats, other := make([]int64, 64), make([]int64, 64), make([]int64, 64)
	var oneSet int64
	for i := range unique {
		unique[i] = int64(i*37) % 64
		repeats[i] = unique[i] % 32
		other[i] = unique[i] + 64
		oneSet += int64(bufarena.SizeFor(len(p.raw[i])))
	}
	shared := benchPlane{raw: p.raw, shared: true}
	for _, bc := range []struct {
		name       string
		plane      benchPlane
		ids, other []int64
		cache      *cache.Cache
	}{
		{"plain", p, unique, unique, nil},
		{"duplicates", p, repeats, repeats, nil},
		{"cached-cold", p, unique, unique, cache.New(cache.Options{})},
		{"cached-warm", shared, unique, other, cache.New(cache.Options{MaxBytes: oneSet})},
	} {
		e := New(Config{Plane: bc.plane, Cache: bc.cache})
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids := bc.ids
				if i%2 == 1 {
					ids = bc.other
				}
				views, _, err := e.LoadLazy(ids, tracectx.Context{})
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range views {
					v.Release()
				}
			}
		})
	}
}

// BenchmarkLoadMaterialize64 is a load and the Graph of every one of its 64
// positions, as a loader's LoadBatch does: the load's eight allocations and
// two more for all its Graphs together (graph.Slabs: one tensor slab, one
// Graph slab), whether its ids are all different or half of them repeats.
func BenchmarkLoadMaterialize64(b *testing.B) {
	p := benchPlane{raw: make([][]byte, 64)}
	for id := range p.raw {
		p.raw[id] = testGraph(int64(id)).Encode()
	}
	unique, repeats := make([]int64, 64), make([]int64, 64)
	for i := range unique {
		unique[i] = int64(i*37) % 64
		repeats[i] = unique[i] % 32
	}
	e := New(Config{Plane: p})
	for _, bc := range []struct {
		name string
		ids  []int64
	}{
		{"plain", unique},
		{"duplicates", repeats},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				views, _, err := e.LoadLazy(bc.ids, tracectx.Context{})
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range views {
					v.Graph()
				}
			}
		})
	}
}
