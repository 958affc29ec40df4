package shardmap

import (
	"bytes"
	"sync"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	m, err := Uniform(0, 100, members("a", "b"), UniformOptions{ShardsPerMember: 2, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(m)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func advance(t *testing.T, st *Store, mems []Member) *Map {
	t.Helper()
	next, _, err := Planner{Width: 1}.Next(st.Current(), mems)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.ApplyIfNewer(next); err != nil || !ok {
		t.Fatalf("apply generation %d: installed %t, %v", next.Gen, ok, err)
	}
	return next
}

func TestStoreApplyAndHistory(t *testing.T) {
	st := newTestStore(t)
	if st.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1", st.Generation())
	}
	g2 := advance(t, st, members("a", "b", "c"))
	if st.Current() != g2 || st.Generation() != 2 {
		t.Fatalf("current gen = %d, want 2", st.Generation())
	}
	if st.At(1) == nil || st.At(2) != g2 {
		t.Fatal("history should hold generations 1 and 2")
	}
	// Advance to keepGenerations+1: generation 1 ages out, and exactly the
	// last keepGenerations stay resolvable.
	for gen := 3; gen <= keepGenerations+1; gen++ {
		if gen%2 == 1 {
			advance(t, st, members("a", "b"))
		} else {
			advance(t, st, members("a", "b", "c"))
		}
	}
	if st.At(1) != nil {
		t.Fatalf("generation 1 should have aged out of a %d-deep history", keepGenerations)
	}
	for gen := uint64(2); gen <= keepGenerations+1; gen++ {
		if m := st.At(gen); m == nil || m.Gen != gen {
			t.Fatalf("generation %d should be resolvable", gen)
		}
	}
	if st.At(99) != nil {
		t.Fatal("future generation resolvable")
	}
}

func TestStoreApplyIfNewer(t *testing.T) {
	st := newTestStore(t)
	// A refresh can jump multiple generations forward.
	jump := st.Current().Clone()
	jump.Gen = 7
	ok, err := st.ApplyIfNewer(jump)
	if err != nil || !ok {
		t.Fatalf("ApplyIfNewer = %v, %v; want installed", ok, err)
	}
	if st.Generation() != 7 {
		t.Fatalf("Generation = %d, want 7", st.Generation())
	}
	// ...but never backward or sideways.
	old := st.Current().Clone()
	old.Gen = 3
	if ok, err := st.ApplyIfNewer(old); err != nil || ok {
		t.Fatalf("stale refresh installed (ok=%v err=%v)", ok, err)
	}
	if ok, err := st.ApplyIfNewer(st.Current().Clone()); err != nil || ok {
		t.Fatal("same-generation refresh installed")
	}
	bad := st.Current().Clone()
	bad.Gen++
	bad.Members = nil
	if _, err := st.ApplyIfNewer(bad); err == nil {
		t.Fatal("invalid refresh accepted")
	}
}

func TestStoreEncodedCachedPerGeneration(t *testing.T) {
	st := newTestStore(t)
	b1, err := st.Encoded()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := st.Encoded()
	if err != nil {
		t.Fatal(err)
	}
	if &b1[0] != &b2[0] {
		t.Fatal("Encoded not cached within a generation")
	}
	m, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != st.Generation() {
		t.Fatalf("decoded gen %d, want %d", m.Gen, st.Generation())
	}
	advance(t, st, members("a", "b", "c"))
	b3, err := st.Encoded()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b3) {
		t.Fatal("Encoded not invalidated across generations")
	}
}

func TestNewStoreRejectsInvalid(t *testing.T) {
	if _, err := NewStore(&Map{Gen: 1}); err == nil {
		t.Fatal("invalid seed map accepted")
	}
}

func TestStoreConcurrentReadersAndAppliers(t *testing.T) {
	st := newTestStore(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := st.Current()
				if _, err := m.ShardOf(5); err != nil {
					t.Error(err)
					return
				}
				st.At(m.Gen)
				if _, err := st.Encoded(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			advance(t, st, members("a", "b", "c"))
		} else {
			advance(t, st, members("a", "b"))
		}
	}
	close(stop)
	wg.Wait()
}
