package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/trace"
)

// scrape flattens a snapshot's counters and gauges into
// name{key=value,...} -> value.
func scrape(reg *Registry) map[string]float64 {
	key := func(name string, labels []Label) string {
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = l.Key + "=" + l.Value
		}
		return name + "{" + strings.Join(parts, ",") + "}"
	}
	out := map[string]float64{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		out[key(c.Name, c.Labels)] = float64(c.Value)
	}
	for _, g := range snap.Gauges {
		out[key(g.Name, g.Labels)] = g.Value
	}
	return out
}

// TestCollectorsScrape: each bridge into the registry shows up in a
// snapshot under its canonical names. want pins exact values, present names
// series whose value varies, and positive those of them that must be above
// zero.
func TestCollectorsScrape(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    func(*Registry)
		want     map[string]float64
		present  []string
		positive []string
	}{
		{
			name: "CollectCache",
			setup: func(reg *Registry) {
				CollectCache(reg, func() cache.Stats {
					return cache.Stats{Hits: 3, Misses: 1, Coalesced: 2, Evictions: 4, Entries: 5, Bytes: 640}
				})
			},
			want: map[string]float64{
				`ddstore_events_total{event=cache-hits}`:      3,
				`ddstore_events_total{event=cache-misses}`:    1,
				`ddstore_events_total{event=cache-coalesced}`: 2,
				`ddstore_events_total{event=cache-evictions}`: 4,
				`ddstore_cache_entries{}`:                     5,
				`ddstore_cache_bytes{}`:                       640,
				`ddstore_cache_hit_rate{}`:                    0.75,
			},
		},
		{
			name:     "CollectGoRuntime",
			setup:    CollectGoRuntime,
			present:  []string{`go_gc_cycles_total{}`},
			positive: []string{`go_goroutines{}`, `go_heap_alloc_bytes{}`, `go_sys_bytes{}`},
		},
		{
			name:  "CollectBuildInfo",
			setup: CollectBuildInfo,
			want: map[string]float64{
				`ddstore_build_info{go=` + runtime.Version() + `,version=` + Version + `}`: 1,
			},
			present: []string{MetricUptime + `{}`},
		},
		{
			name: "AddProfiler",
			setup: func(reg *Registry) {
				// Two runs accumulate.
				for i := 0; i < 2; i++ {
					p := trace.New()
					p.Add(trace.RegionLoading, 250*time.Millisecond)
					p.Add(trace.RegionLoading, 250*time.Millisecond)
					p.Inc("net-retries", 3)
					AddProfiler(reg, p)
				}
			},
			want: map[string]float64{
				`ddstore_region_seconds_total{region=CPU-Loading}`: 1,
				`ddstore_region_steps_total{region=CPU-Loading}`:   4,
				`ddstore_events_total{event=net-retries}`:          6,
			},
		},
		{
			name: "NewCounterSink",
			setup: func(reg *Registry) {
				s := NewCounterSink(reg, "m_total", "k", "a", "b")
				s.Inc("b", 2)
				s.Inc("c", 1)
			},
			// a is pre-registered at zero; c exists because it was counted.
			want: map[string]float64{`m_total{k=a}`: 0, `m_total{k=b}`: 2, `m_total{k=c}`: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tc.setup(reg)
			got := scrape(reg)
			for series, v := range tc.want {
				if gv, ok := got[series]; !ok || gv != v {
					t.Errorf("%s = %v (present %v), want %v; scrape %v", series, gv, ok, v, got)
				}
			}
			for _, series := range tc.present {
				if _, ok := got[series]; !ok {
					t.Errorf("%s missing; scrape %v", series, got)
				}
			}
			for _, series := range tc.positive {
				if got[series] <= 0 {
					t.Errorf("%s = %v, want > 0; scrape %v", series, got[series], got)
				}
			}
		})
	}
}
