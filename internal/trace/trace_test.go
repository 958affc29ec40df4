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

func TestMerge(t *testing.T) {
	a := New()
	a.Add(RegionLoading, time.Millisecond)
	b := New()
	b.Add(RegionLoading, 2*time.Millisecond)
	b.Add(RegionComm, 4*time.Millisecond)
	a.Merge(b)
	if r := a.Get(RegionLoading); r.Total != 3*time.Millisecond || r.Count != 2 {
		t.Fatalf("merged loading: %+v", r)
	}
	if r := a.Get(RegionComm); r.Total != 4*time.Millisecond {
		t.Fatalf("merged comm: %+v", r)
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

func TestMergeSmallStaysExact(t *testing.T) {
	a := New()
	b := New()
	a.Add(RegionLoading, time.Millisecond)
	b.Add(RegionLoading, 2*time.Millisecond)
	b.Add(RegionLoading, 3*time.Millisecond)
	a.Merge(b)
	if r := a.Get(RegionLoading); r.Count != 3 || r.Total != 6*time.Millisecond {
		t.Fatalf("small merge not exact: %+v", r)
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

// TestProfilerConcurrent exercises Add/Inc/Merge/Get/Regions from many
// goroutines; run under -race in CI.
func TestProfilerConcurrent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			other := New()
			for i := 0; i < 500; i++ {
				p.Add(RegionLoading, time.Duration(i)*time.Microsecond)
				p.Inc("events", 1)
				other.Add(RegionLoading, time.Microsecond)
				if i%100 == 99 {
					p.Merge(other)
				}
				_ = p.Get(RegionLoading)
				_ = p.Regions()
				_ = p.String()
			}
		}(w)
	}
	wg.Wait()
	if got := p.Counter("events"); got != 2000 {
		t.Fatalf("events = %d, want 2000", got)
	}
	// Each worker adds 500 and merges its growing other five times.
	wantCount := int64(4 * (500 + 100 + 200 + 300 + 400 + 500))
	if r := p.Get(RegionLoading); r.Count != wantCount {
		t.Fatalf("Count = %d, want %d", r.Count, wantCount)
	}
}
