package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ddstore/internal/stats"
)

// topPercentile returns the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it in a sample of n — the "ten samples beyond"
// rule: a percentile with fewer is one or two outliers, not a tail.
func topPercentile(n int) float64 {
	for _, c := range []struct {
		p              float64
		beyondPerMille int
	}{{99.9, 1}, {99, 10}, {90, 100}} {
		if n*c.beyondPerMille >= 10*1000 {
			return c.p
		}
	}
	return 50
}

// hist counts latencies in buckets a 128th of a power of two wide, so a
// percentile read from it is within 0.8 % of the sample it stands for. A
// window holds millions of requests; a histogram per slice keeps them in a
// few kilobytes that do not grow with throughput, so the benchmark's own
// records do not move heap_inuse_mb.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSubBits = 7
	// Latencies are capped at 2^33 ns, 8.6 s: a request that slow has made
	// its point.
	histMaxBits = 33
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func histBucket(ns uint64) int {
	if ns >= 1<<histMaxBits {
		ns = 1<<histMaxBits - 1
	}
	if ns < 1<<histSubBits {
		return int(ns)
	}
	shift := bits.Len64(ns) - 1 - histSubBits
	return (shift+1)<<histSubBits | int(ns>>shift)&(1<<histSubBits-1)
}

// histValue is the middle of bucket b, in nanoseconds.
func histValue(b int) float64 {
	if b < 1<<histSubBits {
		return float64(b)
	}
	shift := b>>histSubBits - 1
	lo := uint64(1<<histSubBits|b&(1<<histSubBits-1)) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func (h *hist) add(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// percentileUs is the p-th percentile in microseconds: the bucket that holds
// the sample of rank ceil(p/100 · n).
func (h *hist) percentileUs(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for b, c := range h.counts {
		if seen += int(c); seen >= rank {
			return histValue(b) / 1e3
		}
	}
	return histValue(histBuckets-1) / 1e3
}

// sliceLen is the stretch of the window a timing metric is taken over. A
// quarter of a second holds a few hundred requests on the slowest workload,
// enough for a median, and about one garbage collection, so the collector's
// share of the time is in every slice.
const sliceLen = 250 * time.Millisecond

// best reads a timing metric from the window's slices: the value of the
// slice in which the program did best. The host is a guest on shared cores;
// its neighbours only ever slow the program down, in bursts of a fraction of
// a second on top of swells of minutes, and the medians of ten runs of one
// commit then differ by more than most changes to the program would move
// them (README, "Host noise"). What the program does by itself is what it
// does in the stretch the neighbours leave it alone, and the shorter that
// stretch may be, the more surely a window holds one. A change to the
// program moves every slice, the best one too; what this cannot show is a
// change that stalls the program now and then and leaves the rest alone.
func best(perSlice []float64, better string) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	b := perSlice[0]
	for _, v := range perSlice[1:] {
		if (better == "higher") == (v > b) {
			b = v
		}
	}
	return b
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children (parallel
// owner fetches) are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < parent.lo {
			c.lo = parent.lo
		}
		if c.hi > parent.hi {
			c.hi = parent.hi
		}
		if c.hi > c.lo {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered, end int64
	end = parent.lo
	for _, c := range clipped {
		if c.lo > end {
			end = c.lo
		}
		if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return parent.hi - parent.lo - covered
}

// usage is what the process has consumed so far: CPU from getrusage (client
// and servers share the process), allocations and GC from the runtime.
type usage struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// cpuTime is the user and system time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// heapInuseMiB forces a collection and reports the live heap.
func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
