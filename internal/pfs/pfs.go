// Package pfs simulates a shared parallel filesystem (GPFS on Summit,
// Lustre on Perlmutter) for the at-scale experiments. Files are virtual —
// only sizes and access patterns are tracked; the actual sample bytes come
// from the deterministic dataset generators — and every access charges its
// modeled cost to the calling rank's virtual clock.
//
// The model captures the three effects the paper's evaluation hinges on:
//
//   - Metadata pressure: opening a file costs a metadata operation whose
//     latency grows with filesystem-wide concurrency. PFF pays it per
//     sample; CFF and DDStore's preloader amortize it via an fd cache.
//   - Shared-file congestion: concurrent random reads inside the same
//     container file (the CFF pattern) pay an extra multiplier.
//   - OS page cache: each node caches recently-read blocks with read-ahead,
//     which is why the small containerized Ising dataset loads at memory
//     speed at the median but keeps a disk-bound tail (paper §4.4).
//
// For determinism, each rank owns a private page-cache slice of the node's
// capacity and a private fd cache; contention multipliers derive from the
// configured rank count rather than racy live counters.
package pfs

import (
	"fmt"
	"sync"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/vtime"
)

// BlockSize is the page-cache block granularity.
const BlockSize = 1 << 20 // 1 MiB

// fdCacheCap bounds how many open file handles a rank keeps. PFF workloads
// touch millions of distinct files and miss constantly; CFF workloads touch
// a handful of containers and always hit after warm-up.
const fdCacheCap = 256

// PFS is one simulated shared filesystem instance.
type PFS struct {
	machine *cluster.Machine
	// totalRanks is the number of processes concurrently using the
	// filesystem, used for the deterministic contention model.
	totalRanks int

	mu    sync.RWMutex
	files map[string]int64 // path -> size
}

// New creates a filesystem shared by totalRanks processes of the given
// machine.
func New(machine *cluster.Machine, totalRanks int) *PFS {
	if totalRanks < 1 {
		totalRanks = 1
	}
	return &PFS{
		machine:    machine,
		totalRanks: totalRanks,
		files:      make(map[string]int64),
	}
}

// Create registers a virtual file of the given size. Creating an existing
// path overwrites its size.
func (p *PFS) Create(path string, size int64) {
	p.mu.Lock()
	p.files[path] = size
	p.mu.Unlock()
}

// FileSize returns a file's size.
func (p *PFS) FileSize(path string) (int64, bool) {
	p.mu.RLock()
	size, ok := p.files[path]
	p.mu.RUnlock()
	return size, ok
}

// NumFiles returns the number of registered files.
func (p *PFS) NumFiles() int {
	p.mu.RLock()
	n := len(p.files)
	p.mu.RUnlock()
	return n
}

// readersPerFile estimates, deterministically, how many ranks concurrently
// read inside one file: everyone when there are few files (CFF), about one
// when files outnumber ranks (PFF).
func (p *PFS) readersPerFile() int {
	n := p.NumFiles()
	if n == 0 {
		return 1
	}
	r := (p.totalRanks + n - 1) / n
	if r < 1 {
		r = 1
	}
	return r
}

// Reader returns rank-private filesystem state: an fd cache and this rank's
// slice of the node page cache. clock and rng belong to the rank.
func (p *PFS) Reader(clock *vtime.Clock, rng *vtime.RNG) *Reader {
	perRank := p.machine.PageCacheBytes / int64(p.machine.GPUsPerNode)
	return &Reader{
		fs:    p,
		clock: clock,
		rng:   rng,
		fds:   newLRU[string](fdCacheCap),
		pages: newLRU[page](int(perRank / BlockSize)),
	}
}

// Reader is one rank's handle on the filesystem.
type Reader struct {
	fs    *PFS
	clock *vtime.Clock
	rng   *vtime.RNG
	fds   *lru[string] // keyed by path
	pages *lru[page]

	// Counters for the experiment reports.
	MetadataOps int64
	CacheHits   int64
	CacheMisses int64
	BytesRead   int64
}

// readAheadBlocks is how many subsequent blocks the modeled OS prefetches
// on a miss.
const readAheadBlocks = 4

// ReadAt models reading n bytes at offset off of path, charges the cost to
// the rank's clock, and returns the charged duration.
func (r *Reader) ReadAt(path string, off, n int64) (time.Duration, error) {
	size, ok := r.fs.FileSize(path)
	if !ok {
		return 0, fmt.Errorf("pfs: no such file %q", path)
	}
	if off < 0 || n < 0 || off+n > size {
		return 0, fmt.Errorf("pfs: read [%d,%d) out of bounds of %q (%d bytes)", off, off+n, path, size)
	}
	m := r.fs.machine
	var cost time.Duration

	// File open: metadata op unless the handle is cached.
	if !r.fds.get(path) {
		mult := m.FSContention(r.fs.totalRanks)
		cost += time.Duration(float64(m.FSMetadata.Sample(r.rng)) * mult)
		r.fds.put(path)
		r.MetadataOps++
	}

	// Page cache check: the read is a cache hit only if every touched block
	// is resident.
	first := off / BlockSize
	last := (off + n - 1) / BlockSize
	if n == 0 {
		last = first
	}
	resident := true
	for b := first; b <= last; b++ {
		if !r.pages.get(page{path, b}) {
			resident = false
			// get() refreshes recency only for hits; missing blocks are
			// inserted below after the modeled disk read.
		}
	}
	if resident {
		cost += m.CacheHit(n, r.rng)
		r.CacheHits++
	} else {
		mult := m.SharedFileContention(r.fs.readersPerFile())
		cost += time.Duration(float64(m.FSRead(n, r.fs.totalRanks, false, r.rng)) * mult)
		r.CacheMisses++
		// Insert the touched blocks plus read-ahead (prefetch is
		// asynchronous, so it is not charged).
		maxBlock := (size - 1) / BlockSize
		for b := first; b <= last+readAheadBlocks && b <= maxBlock; b++ {
			r.pages.put(page{path, b})
		}
	}
	r.BytesRead += n
	r.clock.Advance(cost)
	return cost, nil
}

// page names one BlockSize block of a file in the page cache.
type page struct {
	path  string
	block int64
}

// lru is a fixed-capacity LRU set.
type lru[K comparable] struct {
	cap   int
	items map[K]*lruNode[K]
	head  *lruNode[K] // most recent
	tail  *lruNode[K] // least recent
}

type lruNode[K comparable] struct {
	key        K
	prev, next *lruNode[K]
}

func newLRU[K comparable](capacity int) *lru[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K]{cap: capacity, items: make(map[K]*lruNode[K])}
}

// get reports whether key is present, refreshing its recency if so.
func (l *lru[K]) get(key K) bool {
	n, ok := l.items[key]
	if !ok {
		return false
	}
	l.moveToFront(n)
	return true
}

// put inserts key (refreshing if present), evicting the least-recent entry
// when full.
func (l *lru[K]) put(key K) {
	if n, ok := l.items[key]; ok {
		l.moveToFront(n)
		return
	}
	n := &lruNode[K]{key: key}
	l.items[key] = n
	l.pushFront(n)
	if len(l.items) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.items, evict.key)
	}
}

func (l *lru[K]) pushFront(n *lruNode[K]) {
	n.next = l.head
	n.prev = nil
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru[K]) unlink(n *lruNode[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru[K]) moveToFront(n *lruNode[K]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
