package cache

import (
	"sync"
	"sync/atomic"
	"testing"

	"ddstore/internal/bufarena"
)

// ctr is a counting Ref for lifecycle assertions.
type ctr struct {
	retains  atomic.Int32
	releases atomic.Int32
}

func (c *ctr) Retain()  { c.retains.Add(1) }
func (c *ctr) Release() { c.releases.Add(1) }
func (c *ctr) live() int32 {
	// PutRef transfers one pre-existing reference in, so live count is
	// 1 + retains - releases.
	return 1 + c.retains.Load() - c.releases.Load()
}

func TestPutRefReleasedOnEvict(t *testing.T) {
	c := New(Options{MaxBytes: 200, Shards: 1})
	victim := &ctr{}
	c.PutRef(1, val(1, 150), victim)
	if victim.live() != 1 {
		t.Fatalf("live = %d after PutRef, want 1", victim.live())
	}
	// Inserting a second entry must evict the first and release its ref.
	c.PutRef(2, val(2, 150), nil)
	if victim.live() != 0 {
		t.Fatalf("live = %d after eviction, want 0", victim.live())
	}
}

func TestPutRefReleasedOnReplace(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 1})
	old := &ctr{}
	c.PutRef(1, val(1, 100), old)
	c.PutRef(1, val(1, 100), nil) // same id: replaces, must release old
	if old.live() != 0 {
		t.Fatalf("live = %d after replace, want 0", old.live())
	}
}

func TestPutRefReleasedOnOversizeReject(t *testing.T) {
	c := New(Options{MaxBytes: 100, Shards: 1})
	r := &ctr{}
	c.PutRef(1, val(1, 5000), r) // larger than the budget: rejected
	if r.live() != 0 {
		t.Fatalf("live = %d after oversize reject, want 0", r.live())
	}
}

func TestClaimRefHitRetains(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 1})
	r := &ctr{}
	c.PutRef(1, val(1, 64), r)
	v, ref, fl := c.ClaimRef(1)
	if fl != nil || v == nil || ref == nil {
		t.Fatalf("ClaimRef hit = (%v, %v, %v)", v, ref, fl)
	}
	if r.live() != 2 {
		t.Fatalf("live = %d after hit, want 2 (entry + claimer)", r.live())
	}
	ref.Release()
	if r.live() != 1 {
		t.Fatalf("live = %d after claimer release, want 1", r.live())
	}
}

// TestCacheNeverReadsAfterRelease is the mutate-after-release canary on a
// real arena buffer: once the cache releases its reference (eviction), the
// buffer is poisoned — and the cache must no longer serve those bytes.
func TestCacheNeverReadsAfterRelease(t *testing.T) {
	c := New(Options{MaxBytes: 300, Shards: 1})
	buf := bufarena.Get(200)
	for i := range buf.Bytes() {
		buf.Bytes()[i] = 0xAA
	}
	c.PutRef(1, buf.Bytes(), buf)
	got, ok := lookup(c, 1)
	if !ok || got[0] != 0xAA {
		t.Fatal("entry not served before eviction")
	}
	// Evict id 1; the cache's reference was the last one, so the buffer is
	// poisoned at this instant. A cache that kept serving the old slice
	// would now hand out poison — assert it does not serve it at all.
	c.PutRef(2, val(2, 200), nil)
	if _, ok := lookup(c, 1); ok {
		t.Fatal("cache served an entry after releasing its buffer")
	}
	for i, b := range buf.Bytes() {
		if b != bufarena.Poison {
			t.Fatalf("byte %d = %#x, want poison: cache did not hold the last reference", i, b)
		}
	}
}

func TestDeliverRefHandsFollowersReferences(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 1})
	_, _, owner := c.ClaimRef(5)
	if owner == nil {
		t.Fatal("first claim did not open a flight")
	}
	const followers = 4
	var wg sync.WaitGroup
	r := &ctr{}
	start := make(chan struct{})
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v0, ref0, fl := c.ClaimRef(5)
			if fl == nil {
				// Late claim resolved as a plain hit; release the hit ref.
				if v0 == nil || ref0 == nil {
					t.Error("late hit without value/ref")
					return
				}
				ref0.Release()
				return
			}
			v, ref, err := fl.WaitRef()
			if err != nil || v == nil || ref == nil {
				t.Errorf("WaitRef = (%v, %v, %v)", v, ref, err)
				return
			}
			ref.Release()
		}()
	}
	close(start)
	// Give the followers a moment to coalesce, then deliver.
	owner.DeliverRef(val(5, 64), r)
	wg.Wait()
	// Whatever mix of followers vs late hits occurred, every handed-out
	// reference was released above, so only the cache entry's remains.
	if r.live() != 1 {
		t.Fatalf("live = %d after all consumers released, want 1 (cache entry)", r.live())
	}
}
