package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	p := New()
	p.Add(RegionLoading, 5*time.Millisecond)
	p.Add(RegionLoading, 3*time.Millisecond)
	p.Add(RegionForward, 2*time.Millisecond)
	r := p.Get(RegionLoading)
	if r.Total != 8*time.Millisecond || r.Count != 2 {
		t.Fatalf("loading region: %+v", r)
	}
	if got := p.Get("absent"); got.Total != 0 || got.Count != 0 {
		t.Fatalf("absent region: %+v", got)
	}
	if p.Total() != 10*time.Millisecond {
		t.Fatalf("Total = %v", p.Total())
	}
}

func TestSamplesRetention(t *testing.T) {
	p := NewSampling()
	p.Add(RegionRMA, time.Millisecond)
	p.Add(RegionRMA, 2*time.Millisecond)
	if got := p.Get(RegionRMA).Samples; len(got) != 2 || got[1] != 2*time.Millisecond {
		t.Fatalf("Samples = %v", got)
	}
	plain := New()
	plain.Add(RegionRMA, time.Millisecond)
	if got := plain.Get(RegionRMA).Samples; got != nil {
		t.Fatalf("non-sampling profiler retained samples: %v", got)
	}
	if got := p.Get("absent").Samples; got != nil {
		t.Fatal("absent region returned samples")
	}
}

func TestMerge(t *testing.T) {
	a := NewSampling()
	a.Add(RegionLoading, time.Millisecond)
	b := NewSampling()
	b.Add(RegionLoading, 2*time.Millisecond)
	b.Add(RegionComm, 4*time.Millisecond)
	a.Merge(b)
	if r := a.Get(RegionLoading); r.Total != 3*time.Millisecond || r.Count != 2 {
		t.Fatalf("merged loading: %+v", r)
	}
	if r := a.Get(RegionComm); r.Total != 4*time.Millisecond {
		t.Fatalf("merged comm: %+v", r)
	}
	if len(a.Get(RegionLoading).Samples) != 2 {
		t.Fatal("merge dropped samples")
	}
}

func TestRegionsOrder(t *testing.T) {
	p := New()
	p.Add("z", 1)
	p.Add("a", 1)
	p.Add("z", 1)
	regions := p.Regions()
	if len(regions) != 2 || regions[0].Name != "z" || regions[1].Name != "a" {
		t.Fatalf("Regions = %+v", regions)
	}
}

func TestString(t *testing.T) {
	p := New()
	p.Add(RegionLoading, 10*time.Millisecond)
	p.Add(RegionForward, 30*time.Millisecond)
	s := p.String()
	if !strings.Contains(s, RegionLoading) || !strings.Contains(s, RegionForward) {
		t.Fatalf("String missing regions:\n%s", s)
	}
	// Largest first.
	if strings.Index(s, RegionForward) > strings.Index(s, RegionLoading) {
		t.Fatalf("String not sorted by total:\n%s", s)
	}
}

func TestReservoirBoundsMemory(t *testing.T) {
	p := NewSampling()
	p.MaxSamples = 100
	for i := 0; i < 10000; i++ {
		p.Add(RegionLoading, time.Duration(i+1)*time.Microsecond)
	}
	got := p.Get(RegionLoading).Samples
	if len(got) != 100 {
		t.Fatalf("reservoir size = %d, want 100", len(got))
	}
	if r := p.Get(RegionLoading); r.Count != 10000 {
		t.Fatalf("Count = %d (capping samples must not cap counts)", r.Count)
	}
	// The reservoir is a uniform sample of the 1µs..10000µs ramp: its mean
	// must sit near the stream mean (~5000µs), not near either end, which
	// is what a keep-first or keep-last policy would produce.
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	mean := sum / time.Duration(len(got))
	if mean < 3500*time.Microsecond || mean > 6500*time.Microsecond {
		t.Fatalf("reservoir mean = %v, want ~5000µs (biased retention?)", mean)
	}
}

func TestReservoirDefaultCap(t *testing.T) {
	p := NewSampling()
	for i := 0; i < DefaultMaxSamples+500; i++ {
		p.Add(RegionRMA, time.Microsecond)
	}
	if got := len(p.Get(RegionRMA).Samples); got != DefaultMaxSamples {
		t.Fatalf("default reservoir size = %d, want %d", got, DefaultMaxSamples)
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	p := NewSampling()
	p.Add(RegionRMA, time.Millisecond)
	s1 := p.Get(RegionRMA).Samples
	s1[0] = 42 * time.Hour
	if got := p.Get(RegionRMA).Samples; got[0] != time.Millisecond {
		t.Fatal("Samples returned the live backing array")
	}
	r := p.Get(RegionRMA)
	r.Samples[0] = 42 * time.Hour
	if got := p.Get(RegionRMA).Samples; got[0] != time.Millisecond {
		t.Fatal("Get returned the live backing array")
	}
}

func TestMergeRespectsReservoirCap(t *testing.T) {
	a := NewSampling()
	a.MaxSamples = 64
	b := NewSampling()
	b.MaxSamples = 64
	// a: 1000 fast observations; b: 1000 slow ones. The merged reservoir
	// must stay capped and draw from both streams.
	for i := 0; i < 1000; i++ {
		a.Add(RegionLoading, time.Microsecond)
		b.Add(RegionLoading, time.Second)
	}
	a.Merge(b)
	got := a.Get(RegionLoading).Samples
	if len(got) != 64 {
		t.Fatalf("merged reservoir size = %d, want 64", len(got))
	}
	var fast, slow int
	for _, d := range got {
		if d == time.Microsecond {
			fast++
		} else if d == time.Second {
			slow++
		} else {
			t.Fatalf("foreign sample %v", d)
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("merge lost a stream: fast=%d slow=%d", fast, slow)
	}
	if r := a.Get(RegionLoading); r.Count != 2000 {
		t.Fatalf("merged Count = %d, want 2000", r.Count)
	}
}

func TestMergeSmallStaysExact(t *testing.T) {
	a := NewSampling()
	b := NewSampling()
	a.Add(RegionLoading, time.Millisecond)
	b.Add(RegionLoading, 2*time.Millisecond)
	b.Add(RegionLoading, 3*time.Millisecond)
	a.Merge(b)
	if got := len(a.Get(RegionLoading).Samples); got != 3 {
		t.Fatalf("small merge not exact: %d samples", got)
	}
}

func TestMergeCounters(t *testing.T) {
	a := New()
	a.Inc("net-retries", 2)
	b := New()
	b.Inc("net-retries", 3)
	b.Inc("net-failovers", 1)
	a.Merge(b)
	if a.Counter("net-retries") != 5 || a.Counter("net-failovers") != 1 {
		t.Fatalf("merged counters: %v", a.Counters())
	}
}

// TestProfilerConcurrent exercises Add/Inc/Merge/Samples/Regions from many
// goroutines; run under -race in CI. The reservoir overwrites samples in
// place, so any shared-slice escape shows up here.
func TestProfilerConcurrent(t *testing.T) {
	p := NewSampling()
	p.MaxSamples = 32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			other := NewSampling()
			other.MaxSamples = 32
			for i := 0; i < 500; i++ {
				p.Add(RegionLoading, time.Duration(i)*time.Microsecond)
				p.Inc("events", 1)
				other.Add(RegionLoading, time.Microsecond)
				if i%100 == 99 {
					p.Merge(other)
				}
				_ = p.Get(RegionLoading).Samples
				_ = p.Regions()
				_ = p.String()
			}
		}(w)
	}
	wg.Wait()
	if got := p.Counter("events"); got != 2000 {
		t.Fatalf("events = %d, want 2000", got)
	}
	// 4 workers * (500 adds + 5 merges * growing other)... just assert the
	// reservoir stayed capped and counts are the exact stream length.
	if got := len(p.Get(RegionLoading).Samples); got != 32 {
		t.Fatalf("reservoir = %d, want 32", got)
	}
	wantCount := int64(4 * (500 + 100 + 200 + 300 + 400 + 500))
	if r := p.Get(RegionLoading); r.Count != wantCount {
		t.Fatalf("Count = %d, want %d", r.Count, wantCount)
	}
}
