// Package trace is a lightweight region profiler in the spirit of Score-P:
// named regions accumulate virtual-time durations and counts. One Profiler
// per rank; profiles merge for whole-run reports (the paper's Fig. 7
// time-share breakdown). Per-sample latency CDFs come from the latencies the
// loads return (ddp.Config.KeepLatencies), not from here.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Standard region names used by the DDP training loop, matching the paper's
// breakdown figures.
const (
	RegionLoading   = "CPU-Loading"
	RegionBatching  = "CPU-Batching"
	RegionForward   = "GPU-Forward"
	RegionBackward  = "GPU-Backward"
	RegionComm      = "GPU-Comm"
	RegionOptimizer = "Optimizer"
	RegionRMA       = "MPI-RMA"
	RegionPreload   = "Preload"
)

// Profiler accumulates per-region timing plus named event counters (the
// resilience events of the TCP data plane: retries, failovers, timeouts).
// All methods are safe for concurrent use — network callbacks record into
// the profiler from multiple goroutines.
type Profiler struct {
	mu       sync.Mutex
	regions  map[string]*Region
	order    []string
	counters map[string]int64
	corder   []string
}

// Region is the accumulated timing of one named region.
type Region struct {
	Name  string
	Total time.Duration
	Count int64
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{regions: make(map[string]*Region), counters: make(map[string]int64)}
}

func (p *Profiler) region(name string) *Region {
	r, ok := p.regions[name]
	if !ok {
		r = &Region{Name: name}
		p.regions[name] = r
		p.order = append(p.order, name)
	}
	return r
}

// Add records one occurrence of a region taking d.
func (p *Profiler) Add(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.region(name)
	r.Total += d
	r.Count++
}

// Inc adds delta to a named event counter. It satisfies the data plane's
// transport.Counters interface, so one profiler carries both the paper's
// region timings and the resilience counters of a run.
func (p *Profiler) Inc(name string, delta int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.counters[name]; !ok {
		p.corder = append(p.corder, name)
	}
	p.counters[name] += delta
}

// Counter returns the value of a named event counter (0 if absent).
func (p *Profiler) Counter(name string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters[name]
}

// Counters returns a copy of all event counters.
func (p *Profiler) Counters() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.counters))
	for k, v := range p.counters {
		out[k] = v
	}
	return out
}

// Get returns the region's accumulated state (zero Region if absent).
func (p *Profiler) Get(name string) Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.regions[name]; ok {
		return *r
	}
	return Region{Name: name}
}

// Total returns the sum over all regions.
func (p *Profiler) Total() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total()
}

func (p *Profiler) total() time.Duration {
	var t time.Duration
	for _, r := range p.regions {
		t += r.Total
	}
	return t
}

// Merge accumulates other into p (used to fold per-rank profiles into a
// whole-run profile).
func (p *Profiler) Merge(other *Profiler) {
	other.mu.Lock()
	names := append([]string(nil), other.order...)
	regions := make([]Region, 0, len(names))
	for _, name := range names {
		regions = append(regions, *other.regions[name])
	}
	cnames := append([]string(nil), other.corder...)
	counts := make([]int64, 0, len(cnames))
	for _, name := range cnames {
		counts = append(counts, other.counters[name])
	}
	other.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	for i, name := range names {
		dst := p.region(name)
		dst.Total += regions[i].Total
		dst.Count += regions[i].Count
	}
	for i, name := range cnames {
		if _, ok := p.counters[name]; !ok {
			p.corder = append(p.corder, name)
		}
		p.counters[name] += counts[i]
	}
}

// Regions returns all regions in first-use order.
func (p *Profiler) Regions() []Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Region, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, *p.regions[name])
	}
	return out
}

// String renders a table of regions sorted by total time, largest first.
func (p *Profiler) String() string {
	regions := p.Regions()
	sort.Slice(regions, func(i, j int) bool { return regions[i].Total > regions[j].Total })
	total := p.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %10s %7s\n", "region", "total", "count", "share")
	for _, r := range regions {
		share := 0.0
		if total > 0 {
			share = float64(r.Total) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-16s %12v %10d %6.1f%%\n", r.Name, r.Total.Round(time.Microsecond), r.Count, share)
	}
	p.mu.Lock()
	cnames := append([]string(nil), p.corder...)
	counts := make([]int64, 0, len(cnames))
	for _, name := range cnames {
		counts = append(counts, p.counters[name])
	}
	p.mu.Unlock()
	for i, name := range cnames {
		fmt.Fprintf(&b, "%-16s %12s %10d\n", name, "-", counts[i])
	}
	return b.String()
}
