package bufarena

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetSizesAndRefs(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 1 << 20, 1<<20 + 1} {
		b := Get(n)
		if b.Len() != n {
			t.Fatalf("Get(%d).Len() = %d", n, b.Len())
		}
		if got := len(b.Bytes()); got != n {
			t.Fatalf("Get(%d) Bytes len = %d", n, got)
		}
		if b.Refs() != 1 {
			t.Fatalf("fresh buffer has %d refs, want 1", b.Refs())
		}
		b.Release()
	}
}

func TestGetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(-1) did not panic")
		}
	}()
	Get(-1)
}

func TestRetainReleaseCounting(t *testing.T) {
	b := Get(64)
	b.Retain()
	b.Retain()
	if b.Refs() != 3 {
		t.Fatalf("refs = %d, want 3", b.Refs())
	}
	b.Release()
	b.Release()
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", b.Refs())
	}
	b.Release()
	if b.Refs() != 0 {
		t.Fatalf("refs = %d after final release, want 0", b.Refs())
	}
}

// TestPoisonOnFinalRelease is the mutate-after-release canary: the final
// Release overwrites the whole visible payload, so any consumer still
// reading a released buffer sees poison, not stale-but-plausible data. The
// lengths sit on and around the fill's doubling steps and the size classes,
// up to an oversize (unpooled) buffer; a truncated buffer is poisoned to
// its visible length.
func TestPoisonOnFinalRelease(t *testing.T) {
	check := func(t *testing.T, b *Buf) {
		t.Helper()
		data := b.Bytes()
		for i := range data {
			data[i] = byte(i)
			if data[i] == Poison {
				data[i] = 0
			}
		}
		b.Release()
		for i, v := range data {
			if v != Poison {
				t.Fatalf("byte %d of %d = %#x after final release, want poison %#x", i, len(data), v, Poison)
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 7, 255, 256, 257, 1400, 23000, 1 << 20, 1<<20 + 1} {
		check(t, Get(n))
	}
	for _, n := range []int{0, 1, 100, 1399} {
		b := Get(1400)
		b.Truncate(n)
		check(t, b)
	}
}

// BenchmarkGetRelease is the arena's whole per-buffer cost — a pool get, a
// final release and the canary fill between them — at a single sample's
// size and at a 64-batch response's.
func BenchmarkGetRelease(b *testing.B) {
	for _, n := range []int{1400, 23000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				Get(n).Release()
			}
		})
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterFinalReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	b.Retain()
}

func TestNilSafe(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release()
	if b.Len() != 0 || b.Bytes() != nil || b.Refs() != 0 {
		t.Fatal("nil Buf accessors not zero-valued")
	}
}

func TestRecycling(t *testing.T) {
	// A released pooled buffer should come back from the pool. sync.Pool
	// gives no hard guarantee, so assert on the stats counters instead of
	// pointer identity: after warming the class, recycles must rise.
	gets0, _, recycles0 := Stats()
	for i := 0; i < 64; i++ {
		b := Get(512)
		b.Release()
	}
	gets1, _, recycles1 := Stats()
	if gets1-gets0 != 64 {
		t.Fatalf("gets rose by %d, want 64", gets1-gets0)
	}
	if recycles1 <= recycles0 {
		t.Fatalf("no recycles after 64 get/release rounds (before %d, after %d)", recycles0, recycles1)
	}
}

func TestOversizeUnpooled(t *testing.T) {
	b := Get(1<<20 + 1)
	if b.class >= 0 {
		t.Fatalf("oversize buffer got pool class %d, want unpooled", b.class)
	}
	b.Release() // must not panic, must not pool
}

// TestClassTable walks every pooled length: each maps to the smallest
// class that holds it, a class above 256 B is at most 1.25 times the
// length it serves, and anything above 1 MiB stays unpooled at its own
// length.
func TestClassTable(t *testing.T) {
	for c := 1; c < numClasses; c++ {
		if classSizes[c] <= classSizes[c-1] {
			t.Fatalf("class %d (%d B) is not above class %d (%d B)", c, classSizes[c], c-1, classSizes[c-1])
		}
	}
	if last := classSizes[numClasses-1]; last != 1<<20 {
		t.Fatalf("largest class is %d B, want 1 MiB", last)
	}
	for n := 1; n <= 1<<20; n++ {
		c := classFor(n)
		if c < 0 || classSizes[c] < n {
			t.Fatalf("length %d maps to class %d, which does not hold it", n, c)
		}
		if c > 0 && classSizes[c-1] >= n {
			t.Fatalf("length %d maps to class %d (%d B), but class %d (%d B) holds it", n, c, classSizes[c], c-1, classSizes[c-1])
		}
		if n > 256 && 4*classSizes[c] > 5*n {
			t.Fatalf("length %d gets a %d B buffer, more than 1.25 times", n, classSizes[c])
		}
		if SizeFor(n) != classSizes[c] {
			t.Fatalf("SizeFor(%d) = %d, want %d", n, SizeFor(n), classSizes[c])
		}
	}
	for _, n := range []int{1<<20 + 1, 3 << 20} {
		if c := classFor(n); c != -1 || SizeFor(n) != n {
			t.Fatalf("length %d: class %d, size %d; want unpooled at its own length", n, c, SizeFor(n))
		}
	}
	for _, n := range []int{0, 300, 1<<20 + 1} {
		b := Get(n)
		if b.Cap() != SizeFor(n) {
			t.Fatalf("Get(%d).Cap() = %d, want %d", n, b.Cap(), SizeFor(n))
		}
		b.Release()
	}
}

// TestLiveCounts drives retains, releases and oversize buffers and checks
// Live after each step: a buffer and its capacity count from Get to its
// final Release, whatever the references in between, and the counts come
// back to where they started.
func TestLiveCounts(t *testing.T) {
	bufs0, bytes0 := Live()
	check := func(step string, bufs, bytes int64) {
		t.Helper()
		if b, n := Live(); b-bufs0 != bufs || n-bytes0 != bytes {
			t.Fatalf("%s: live %d buffers, %d bytes; want %d, %d", step, b-bufs0, n-bytes0, bufs, bytes)
		}
	}
	small, big := Get(300), Get(1<<20+5)
	small.Retain()
	check("two gets", 2, 320+1<<20+5)
	small.Release()
	check("a release with a reference left", 2, 320+1<<20+5)
	big.Retain()
	big.Release()
	big.Release()
	check("oversize final release", 1, 320)
	small.Release()
	check("all released", 0, 0)
	for i := 0; i < 10; i++ {
		Get(i * 1000).Release()
	}
	check("get and release", 0, 0)
}

func TestConcurrentRetainRelease(t *testing.T) {
	const workers = 8
	b := Get(256)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		b.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Retain()
				_ = b.Bytes()[0]
				b.Release()
			}
			b.Release()
		}()
	}
	wg.Wait()
	if b.Refs() != 1 {
		t.Fatalf("refs = %d after workers, want 1", b.Refs())
	}
	b.Release()
}
