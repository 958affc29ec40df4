package fetch

import (
	"testing"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/obs/tracectx"
)

// benchPlane serves pre-encoded samples from four owners with no wire, so
// what a load costs here is the engine's own bookkeeping.
type benchPlane struct {
	raw [][]byte
}

func (p benchPlane) OwnerOf(id int64) (int, error) { return int(id % 4), nil }
func (p benchPlane) Local(int) bool                { return false }

func (p benchPlane) Issue(*Pending) {}

func (p benchPlane) Collect(pd *Pending, deliver Deliver) error {
	for _, id := range pd.IDs {
		if err := deliver(id, p.raw[id], nil, time.Microsecond); err != nil {
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
// cache's byte budget is zero so every load misses all 64).
func BenchmarkLoadLazy64(b *testing.B) {
	p := benchPlane{raw: make([][]byte, 64)}
	for id := range p.raw {
		p.raw[id] = testGraph(int64(id)).Encode()
	}
	unique, repeats := make([]int64, 64), make([]int64, 64)
	for i := range unique {
		unique[i] = int64(i*37) % 64
		repeats[i] = unique[i] % 32
	}
	for _, bc := range []struct {
		name  string
		ids   []int64
		cache *cache.Cache
	}{
		{"plain", unique, nil},
		{"duplicates", repeats, nil},
		{"cached-cold", unique, cache.New(cache.Options{})},
	} {
		e := New(Config{Plane: p, Cache: bc.cache})
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.LoadLazy(bc.ids, tracectx.Context{}); err != nil {
					b.Fatal(err)
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
