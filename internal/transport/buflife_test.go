package transport

import (
	"math/rand"
	"sync"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/graph"
)

// TestGetBatchBufsAliasing pins the zero-copy contract: the returned parts
// alias the pooled response buffer, stay valid while the reference is
// held, and read poison after the final release — proving no hidden copy
// sits between the socket and the caller.
func TestGetBatchBufsAliasing(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids := []int64{3, 17, 3, 9}
	buf, parts, err := cl.GetBatchBufs(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(ids) {
		t.Fatalf("got %d parts for %d ids", len(parts), len(ids))
	}
	// While the reference is held, every part decodes to its sample.
	for i, id := range ids {
		g, err := graph.Decode(parts[i])
		if err != nil {
			t.Fatalf("decode part %d: %v", i, err)
		}
		if g.ID != id {
			t.Fatalf("part %d: sample %d, want %d", i, g.ID, id)
		}
	}
	if buf.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", buf.Refs())
	}
	buf.Release()
	// The parts alias the released buffer: they must now read the poison
	// canary, proving they were views, not copies.
	for i, p := range parts {
		for j, b := range p {
			if b != bufarena.Poison {
				t.Fatalf("part %d byte %d = %#x after release, want poison — part was a copy or buffer still live", i, j, b)
			}
		}
	}
}

// TestConcurrentLoadBufferHammer drives concurrent Load/LoadLazy traffic
// with a deliberately tiny cache, so pooled buffers are constantly
// claimed, shared by coalesced flights, evicted, released, and recycled.
// Under -race this is the aliasing proof for the whole pipeline: any path
// that reads a buffer after its last reference released races with the
// poison write.
func TestConcurrentLoadBufferHammer(t *testing.T) {
	const (
		lo, hi  = 0, 120
		workers = 8
		rounds  = 60
	)
	srv, err := Serve("127.0.0.1:0", wireChunk(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g, err := NewGroupReplicas([][]string{{srv.Addr()}}, GroupOptions{
		Client:     ClientOptions{Policy: fastPolicy()},
		MaxBatch:   16,
		CacheBytes: 2 << 10, // tiny: constant eviction and re-fetch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				ids := make([]int64, 1+rng.Intn(24))
				for i := range ids {
					ids[i] = lo + rng.Int63n(hi-lo)
				}
				if r%2 == 0 {
					gs, _, err := loadGraphs(g, ids)
					if err != nil {
						errs <- err
						return
					}
					for i, gr := range gs {
						if gr.ID != ids[i] {
							t.Errorf("slot %d: sample %d, want %d", i, gr.ID, ids[i])
							return
						}
					}
					continue
				}
				lzs, _, err := g.LoadLazy(ids)
				if err != nil {
					errs <- err
					return
				}
				for i, lz := range lzs {
					if lz.ID() != ids[i] {
						t.Errorf("lazy slot %d: sample %d, want %d", i, lz.ID(), ids[i])
						return
					}
					// Alternate between materializing (releases the ref)
					// and dropping the view unread.
					if i%2 == 0 {
						if gr := lz.Graph(); gr.ID != ids[i] {
							t.Errorf("materialized %d, want %d", gr.ID, ids[i])
							return
						}
					} else {
						lz.Release()
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
