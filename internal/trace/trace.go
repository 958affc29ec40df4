// Package trace is a lightweight region profiler in the spirit of Score-P:
// named regions accumulate virtual-time durations and counts, and can retain
// raw samples for latency CDFs. One Profiler per rank; profiles merge for
// whole-run reports (the paper's Fig. 7 time-share breakdown).
package trace

import (
	"fmt"
	"math"
	"math/rand"
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
	RegionOther     = "Other"
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
	rng      *rand.Rand
	// KeepSamples enables raw-sample retention (for CDFs). Off by default to
	// bound memory.
	KeepSamples bool
	// MaxSamples caps the per-region sample buffer (0 means
	// DefaultMaxSamples). Once a region exceeds the cap, retention switches
	// to uniform reservoir sampling over the region's whole stream, so
	// percentile estimates stay valid while memory stays constant.
	MaxSamples int
}

// DefaultMaxSamples is the per-region reservoir size when MaxSamples is 0:
// large enough that p99 over the reservoir tracks p99 over the stream to
// well under a percentile point, small enough that a week-long run holds a
// few hundred KiB of samples per region.
const DefaultMaxSamples = 8192

// Region is the accumulated timing of one named region.
type Region struct {
	Name    string
	Total   time.Duration
	Count   int64
	Samples []time.Duration // only if KeepSamples; reservoir, unordered past the cap
	// sampleStream is the number of observations the reservoir represents
	// (== Count for regions fed only by Add; tracked separately so Merge can
	// weight two reservoirs correctly).
	sampleStream int64
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{regions: make(map[string]*Region), counters: make(map[string]int64)}
}

// NewSampling returns a profiler that retains raw samples.
func NewSampling() *Profiler {
	p := New()
	p.KeepSamples = true
	return p
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

func (p *Profiler) maxSamples() int {
	if p.MaxSamples > 0 {
		return p.MaxSamples
	}
	return DefaultMaxSamples
}

// rand returns the profiler's reservoir rng, created lazily under p.mu.
// Seeded deterministically so runs with identical streams retain identical
// reservoirs.
func (p *Profiler) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(0x5eed))
	}
	return p.rng
}

// Add records one occurrence of a region taking d. With KeepSamples on,
// the first MaxSamples observations are retained verbatim; past the cap,
// Algorithm R reservoir sampling keeps a uniform sample of the whole
// stream, so memory is bounded and percentile estimates stay unbiased.
func (p *Profiler) Add(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.region(name)
	r.Total += d
	r.Count++
	if p.KeepSamples {
		r.sampleStream++
		max := p.maxSamples()
		if len(r.Samples) < max {
			r.Samples = append(r.Samples, d)
		} else if j := p.rand().Int63n(r.sampleStream); j < int64(max) {
			r.Samples[j] = d
		}
	}
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

// copyRegion snapshots a region, cloning the sample reservoir — the live
// reservoir is overwritten in place past the cap, so handing out the
// shared backing array would race with concurrent Adds.
func copyRegion(r *Region) Region {
	out := *r
	if r.Samples != nil {
		out.Samples = append([]time.Duration(nil), r.Samples...)
	}
	return out
}

// Get returns the region's accumulated state (zero Region if absent).
func (p *Profiler) Get(name string) Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.regions[name]; ok {
		return copyRegion(r)
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
		regions = append(regions, copyRegion(other.regions[name]))
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
		if p.KeepSamples {
			p.mergeSamples(dst, regions[i])
		}
	}
	for i, name := range cnames {
		if _, ok := p.counters[name]; !ok {
			p.corder = append(p.corder, name)
		}
		p.counters[name] += counts[i]
	}
}

// mergeSamples folds src's sample reservoir into dst's under p.mu. When
// the combined samples fit the cap they concatenate; otherwise a weighted
// reservoir merge (A-Res: key u^(1/w), weight = represented stream length
// per retained sample) keeps the top MaxSamples, so a sample from a
// heavily subsampled reservoir correctly outweighs one retained verbatim.
func (p *Profiler) mergeSamples(dst *Region, src Region) {
	defer func() { dst.sampleStream += src.sampleStream }()
	if len(src.Samples) == 0 {
		return
	}
	max := p.maxSamples()
	if len(dst.Samples)+len(src.Samples) <= max {
		dst.Samples = append(dst.Samples, src.Samples...)
		return
	}
	type keyed struct {
		d   time.Duration
		key float64
	}
	rng := p.rand()
	all := make([]keyed, 0, len(dst.Samples)+len(src.Samples))
	weigh := func(samples []time.Duration, stream int64) {
		if len(samples) == 0 {
			return
		}
		w := float64(stream) / float64(len(samples))
		if w < 1 {
			w = 1
		}
		for _, d := range samples {
			all = append(all, keyed{d: d, key: math.Pow(rng.Float64(), 1/w)})
		}
	}
	weigh(dst.Samples, dst.sampleStream)
	weigh(src.Samples, src.sampleStream)
	sort.Slice(all, func(i, j int) bool { return all[i].key > all[j].key })
	out := make([]time.Duration, max)
	for i := range out {
		out[i] = all[i].d
	}
	dst.Samples = out
}

// Regions returns all regions in first-use order (samples copied).
func (p *Profiler) Regions() []Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Region, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, copyRegion(p.regions[name]))
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
