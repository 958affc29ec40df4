// Package bufarena provides ref-counted pooled byte buffers for the data
// plane's hot read path. A response payload is read off the socket into a
// pooled buffer (through the connection's buffered reader, which copies at
// most what arrived with the response head) and then aliased — by batch
// parts, by lazy graph decodes — without copying; each alias holds a
// reference, and the buffer returns to its pool only when the last
// reference is released. A cache entry is the exception: it would pin a
// whole batch reply for one part, so the fetch engine copies the part it
// caches into a buffer of the part's own size class.
//
// Ownership discipline:
//
//   - Get returns a buffer with exactly one reference, owned by the caller.
//   - Passing a buffer across an API that "takes ownership" transfers that
//     one reference; the caller must Retain first if it keeps an alias.
//   - Release with outstanding references is cheap bookkeeping; the final
//     Release poisons the buffer and returns it to the pool.
//   - Releasing more times than retained panics — a double release is a
//     use-after-free in waiting, never a recoverable condition.
//
// A buffer that is never released is not a leak: its memory stays ordinary
// garbage-collected heap, it just never gets recycled. That makes it safe
// to hand a buffer's bytes to callers outside the refcount discipline
// (transport's GetBatchRaw returns parts of one as plain []byte) — the pool
// merely loses one recycling opportunity. A public API that returns a
// single sample copies it out and releases instead (GetRaw), so the
// smallest request still recycles its buffer.
//
// Poisoning is the aliasing canary: the final Release overwrites the
// buffer's whole visible payload with a fixed pattern before pooling it,
// in every build, so any alias that outlives its reference reads garbage
// deterministically (and races with the poison write under -race) instead
// of silently reading recycled data. The fill is one copy from a static
// block of poison, doubled by copy, so it runs at memmove speed. The cache
// and transport aliasing tests are built on it.
package bufarena

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Poison is the byte pattern the final Release writes over a pooled
// buffer. Tests assert on it to prove a release happened (or didn't).
const Poison = 0xDB

// Size classes: one class up to 256 B, then four to each octave up to
// 1 MiB, at 5/4, 6/4, 7/4 and 8/4 of the octave's lower power of two, so
// above 256 B a pooled buffer is at most 1.25 times its length. Larger
// requests are allocated directly and never pooled.
const (
	minClassBits = 8  // 256 B
	maxClassBits = 20 // 1 MiB
	numClasses   = 1 + 4*(maxClassBits-minClassBits)
)

// classSizes holds each class's buffer capacity.
var classSizes = func() (sizes [numClasses]int) {
	sizes[0] = 1 << minClassBits
	for c := 1; c < numClasses; c++ {
		k := minClassBits + (c-1)/4
		sizes[c] = 1<<k + ((c-1)%4+1)<<(k-2)
	}
	return sizes
}()

// poisonBlock seeds the final Release's fill with one copy.
var poisonBlock = func() (b [4096]byte) {
	for i := range b {
		b[i] = Poison
	}
	return b
}()

// Buf is one pooled, ref-counted buffer. The zero value is invalid; use
// Get. Buf satisfies the structural Retain/Release interfaces declared by
// the graph and cache packages.
type Buf struct {
	data  []byte // full class-sized capacity (exactly n when unpooled)
	n     int    // requested length
	refs  atomic.Int32
	class int // pool class index; -1 = unpooled (too large)
}

var pools [numClasses]sync.Pool

// Stats counters, for tests and the /metrics collectors.
var (
	statGets      atomic.Int64 // buffers handed out
	statNews      atomic.Int64 // handed out by allocating (pool miss or oversize)
	statFinals    atomic.Int64 // final Releases, oversize buffers included
	statOversize  atomic.Int64 // final Releases of oversize buffers
	statLiveBytes atomic.Int64 // capacity handed out and not finally released
)

// Stats reports cumulative arena traffic: buffers handed out, buffers that
// required a fresh allocation, and buffers recycled by a final Release.
func Stats() (gets, news, recycles int64) {
	return statGets.Load(), statNews.Load(), statFinals.Load() - statOversize.Load()
}

// Live reports the buffers handed out and not yet finally released,
// oversize ones included, and the capacity they hold. A buffer that is
// never released stays live.
func Live() (bufs, bytes int64) {
	return statGets.Load() - statFinals.Load(), statLiveBytes.Load()
}

// classFor maps a length to its size-class index, or -1 for oversize: the
// octave of n-1's top bit and the two bits below it.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > 1<<maxClassBits {
		return -1
	}
	m := uint(n - 1)
	k := bits.Len(m) - 1
	return 1 + 4*(k-minClassBits) + int(m>>(k-2)&3)
}

// SizeFor returns the capacity Get(n) hands out: n's size class, or n
// itself when n is too large to pool.
func SizeFor(n int) int {
	if c := classFor(n); c >= 0 {
		return classSizes[c]
	}
	return n
}

// Get returns a buffer of length n holding one reference, owned by the
// caller. The contents are unspecified (previous poison included): the
// caller fills it.
func Get(n int) *Buf {
	if n < 0 {
		panic(fmt.Sprintf("bufarena: negative length %d", n))
	}
	statGets.Add(1)
	class := classFor(n)
	var b *Buf
	if class >= 0 {
		if v := pools[class].Get(); v != nil {
			b = v.(*Buf)
		}
	}
	if b == nil {
		statNews.Add(1)
		size := n
		if class >= 0 {
			size = classSizes[class]
		}
		b = &Buf{data: make([]byte, size), class: class}
	}
	statLiveBytes.Add(int64(len(b.data)))
	b.n = n
	b.refs.Store(1)
	return b
}

// Bytes returns the buffer's length-n contents (nil for a nil buffer).
// The slice is valid only while the caller holds a reference.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.data[:b.n]
}

// Len returns the requested length (0 for a nil buffer).
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Cap returns the memory the buffer holds: its size class, or its length
// when unpooled (0 for a nil buffer).
func (b *Buf) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.data)
}

// Truncate shortens the buffer's visible length to n (0 <= n <= Len), so
// a consumer can strip trailing framing — e.g. a response timing trailer —
// before aliasing the data in front of it. The discarded capacity stays
// with the buffer and is recycled with it.
func (b *Buf) Truncate(n int) {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("bufarena: Truncate(%d) of a %d-byte buffer", n, b.n))
	}
	b.n = n
}

// Refs returns the current reference count (for tests).
func (b *Buf) Refs() int32 {
	if b == nil {
		return 0
	}
	return b.refs.Load()
}

// Retain adds a reference. Retaining a buffer whose references already hit
// zero panics: the memory may already be recycled.
func (b *Buf) Retain() {
	if b == nil {
		return
	}
	if b.refs.Add(1) <= 1 {
		panic("bufarena: Retain after final Release")
	}
}

// Release drops one reference. The final release poisons the buffer and
// returns it to its pool; releasing below zero panics.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	refs := b.refs.Add(-1)
	switch {
	case refs > 0:
		return
	case refs < 0:
		panic("bufarena: Release of a buffer with no outstanding reference")
	}
	// Poison the whole payload so any alias that outlives its reference
	// reads the canary (and, under -race, races with this write). Seed up
	// to 4 KiB with one copy from the static block, then double the filled
	// prefix with copy: the fill runs at memmove speed, not a byte per
	// iteration.
	p := b.data[:b.n]
	for filled := copy(p, poisonBlock[:]); filled < len(p); filled *= 2 {
		copy(p[filled:], p[:filled])
	}
	statFinals.Add(1)
	statLiveBytes.Add(-int64(len(b.data)))
	if b.class < 0 {
		statOversize.Add(1)
		return // oversize: garbage-collected, never pooled
	}
	pools[b.class].Put(b)
}
