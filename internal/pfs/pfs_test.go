package pfs

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/vtime"
)

func newReader(t *testing.T, fs *PFS) (*Reader, *vtime.Clock) {
	t.Helper()
	clock := &vtime.Clock{}
	return fs.Reader(clock, vtime.NewRNG(7)), clock
}

func TestCreateAndStat(t *testing.T) {
	fs := New(cluster.Perlmutter(), 64)
	fs.Create("a", 100)
	fs.Create("b", 200)
	if n := fs.NumFiles(); n != 2 {
		t.Fatalf("NumFiles = %d", n)
	}
	size, ok := fs.FileSize("a")
	if !ok || size != 100 {
		t.Fatalf("FileSize(a) = %d, %v", size, ok)
	}
	if _, ok := fs.FileSize("missing"); ok {
		t.Fatal("missing file found")
	}
	fs.Create("a", 150) // overwrite
	if size, _ := fs.FileSize("a"); size != 150 {
		t.Fatalf("overwritten size = %d", size)
	}
}

func TestReadAtBounds(t *testing.T) {
	fs := New(cluster.Perlmutter(), 4)
	fs.Create("f", 1000)
	r, _ := newReader(t, fs)
	if _, err := r.ReadAt("f", 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt("f", 500, 501); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, err := r.ReadAt("f", -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := r.ReadAt("missing", 0, 1); err == nil {
		t.Fatal("read of missing file accepted")
	}
}

func TestReadChargesClock(t *testing.T) {
	fs := New(cluster.Perlmutter(), 64)
	fs.Create("f", 1<<30)
	r, clock := newReader(t, fs)
	cost, err := r.ReadAt("f", 1<<25, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("read cost not positive")
	}
	if clock.Now() != cost {
		t.Fatalf("clock %v != cost %v", clock.Now(), cost)
	}
}

func TestFdCacheAmortizesMetadata(t *testing.T) {
	fs := New(cluster.Perlmutter(), 64)
	fs.Create("container", 1<<30)
	r, _ := newReader(t, fs)
	// Same file repeatedly: one metadata op.
	for i := 0; i < 50; i++ {
		if _, err := r.ReadAt("container", int64(i)*BlockSize*10, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if r.MetadataOps != 1 {
		t.Fatalf("MetadataOps = %d, want 1 (fd cached)", r.MetadataOps)
	}
}

func TestPFFPatternPaysMetadataPerFile(t *testing.T) {
	fs := New(cluster.Perlmutter(), 64)
	for i := 0; i < 1000; i++ {
		fs.Create(fmt.Sprintf("sample-%d", i), 8192)
	}
	r, _ := newReader(t, fs)
	for i := 0; i < 1000; i++ {
		if _, err := r.ReadAt(fmt.Sprintf("sample-%d", i), 0, 8192); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 distinct files through a 256-entry fd cache: every open misses.
	if r.MetadataOps != 1000 {
		t.Fatalf("MetadataOps = %d, want 1000", r.MetadataOps)
	}
}

func TestPageCacheHitsOnRepeatedReads(t *testing.T) {
	m := cluster.Perlmutter()
	fs := New(m, 4)
	fs.Create("small", 8*BlockSize) // fits easily in cache
	r, _ := newReader(t, fs)
	if _, err := r.ReadAt("small", 0, 4096); err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses != 1 || r.CacheHits != 0 {
		t.Fatalf("first read: hits=%d misses=%d", r.CacheHits, r.CacheMisses)
	}
	cost2, err := r.ReadAt("small", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHits != 1 {
		t.Fatalf("second read not a cache hit (hits=%d misses=%d)", r.CacheHits, r.CacheMisses)
	}
	// A cache hit must be much cheaper than a typical disk read.
	if seekMedian := time.Duration(math.Exp(m.FSSeek.Mu) * float64(time.Second)); cost2 > seekMedian {
		t.Fatalf("cache hit cost %v not below seek median %v", cost2, seekMedian)
	}
}

func TestReadAheadServesSequentialReads(t *testing.T) {
	fs := New(cluster.Perlmutter(), 4)
	fs.Create("seq", 64*BlockSize)
	r, _ := newReader(t, fs)
	// Sequential block-sized reads: miss, then readAheadBlocks hits, ...
	for b := int64(0); b < 10; b++ {
		if _, err := r.ReadAt("seq", b*BlockSize, BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if r.CacheMisses >= 10 {
		t.Fatalf("read-ahead ineffective: %d misses for 10 sequential reads", r.CacheMisses)
	}
	if r.CacheHits == 0 {
		t.Fatal("no read-ahead hits")
	}
}

func TestLargeFileRandomReadsMostlyMiss(t *testing.T) {
	m := cluster.Perlmutter()
	fs := New(m, 64)
	// File much larger than the per-rank cache slice (128 GB / 4 = 32 GB).
	fs.Create("huge", 200<<30)
	r, _ := newReader(t, fs)
	rng := vtime.NewRNG(3)
	const reads = 500
	for i := 0; i < reads; i++ {
		off := int64(rng.Uint64()>>1) % (200<<30 - 8192)
		if _, err := r.ReadAt("huge", off, 8192); err != nil {
			t.Fatal(err)
		}
	}
	if float64(r.CacheMisses) < 0.95*reads {
		t.Fatalf("random reads in a huge file should mostly miss: %d/%d misses", r.CacheMisses, reads)
	}
}

func TestContentionIncreasesCost(t *testing.T) {
	// Median cost of the same access pattern must grow with rank count.
	med := func(ranks int) time.Duration {
		m := cluster.Perlmutter()
		fs := New(m, ranks)
		fs.Create("f", 100<<30)
		clock := &vtime.Clock{}
		r := fs.Reader(clock, vtime.NewRNG(1))
		var costs []time.Duration
		rng := vtime.NewRNG(2)
		for i := 0; i < 401; i++ {
			off := int64(rng.Uint64()>>1) % (100<<30 - 8192)
			c, err := r.ReadAt("f", off, 8192)
			if err != nil {
				t.Fatal(err)
			}
			costs = append(costs, c)
		}
		// insertion-sort median
		for i := 1; i < len(costs); i++ {
			for j := i; j > 0 && costs[j] < costs[j-1]; j-- {
				costs[j], costs[j-1] = costs[j-1], costs[j]
			}
		}
		return costs[len(costs)/2]
	}
	if m4, m1024 := med(4), med(1024); m1024 <= m4 {
		t.Fatalf("contention missing: median at 1024 ranks (%v) <= at 4 ranks (%v)", m1024, m4)
	}
}

func TestSharedFileCongestionVsManyFiles(t *testing.T) {
	// With the same total ranks, a single shared container (CFF) must show
	// more per-read congestion than per-sample files (PFF), holding the
	// metadata cost aside.
	m := cluster.Perlmutter()
	one := New(m, 512)
	one.Create("container", 1<<40)
	many := New(m, 512)
	for i := 0; i < 4096; i++ {
		many.Create(fmt.Sprintf("s-%d", i), 1<<20)
	}
	if one.readersPerFile() <= many.readersPerFile() {
		t.Fatalf("readersPerFile: container=%d, per-sample=%d", one.readersPerFile(), many.readersPerFile())
	}
}

func TestDeterministicCosts(t *testing.T) {
	runOnce := func() time.Duration {
		fs := New(cluster.Summit(), 48)
		fs.Create("f", 10<<30)
		clock := &vtime.Clock{}
		r := fs.Reader(clock, vtime.NewRNG(11))
		rng := vtime.NewRNG(12)
		for i := 0; i < 200; i++ {
			off := int64(rng.Uint64()>>1) % (10<<30 - 4096)
			if _, err := r.ReadAt("f", off, 4096); err != nil {
				t.Fatal(err)
			}
		}
		return clock.Now()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("pfs not deterministic: %v vs %v", a, b)
	}
}

func TestLRU(t *testing.T) {
	l := newLRU[string](3)
	l.put("a")
	l.put("b")
	l.put("c")
	if !l.get("a") || !l.get("b") || !l.get("c") {
		t.Fatal("inserted keys missing")
	}
	l.get("a") // refresh a
	l.put("d") // evicts b (LRU after a,c refreshes... order: get c, get a, put d -> evict b)
	if l.get("b") {
		t.Fatal("b should have been evicted")
	}
	if !l.get("a") || !l.get("c") || !l.get("d") {
		t.Fatal("wrong eviction")
	}
	if len(l.items) != 3 {
		t.Fatalf("%d entries", len(l.items))
	}
	l.put("d") // re-put refreshes, no growth
	if len(l.items) != 3 {
		t.Fatalf("re-put grew LRU to %d", len(l.items))
	}
}

func TestLRUSingleEntry(t *testing.T) {
	l := newLRU[string](1)
	l.put("x")
	l.put("y")
	if l.get("x") {
		t.Fatal("x not evicted")
	}
	if !l.get("y") {
		t.Fatal("y missing")
	}
	if len(l.items) != 1 {
		t.Fatalf("%d entries", len(l.items))
	}
}

func TestZeroLengthRead(t *testing.T) {
	fs := New(cluster.Laptop(), 2)
	fs.Create("f", 100)
	r, _ := newReader(t, fs)
	if _, err := r.ReadAt("f", 100, 0); err != nil {
		t.Fatalf("zero-length read at EOF: %v", err)
	}
}
