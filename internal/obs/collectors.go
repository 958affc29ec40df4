// Bridges from DDStore's existing signal sources into the registry: the
// region profiler (internal/trace), the hot-sample cache (internal/cache),
// the fetch-latency histogram, the Go runtime, and the Inc(name, delta)
// counter sinks the transport and cache packages emit events through. A
// process gives each event one way into the registry — a live CounterSink,
// or a profiler folded in by AddProfiler when its run is over — never two.
package obs

import (
	"runtime"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/trace"
)

// Canonical metric names shared by every DDStore process, so dashboards
// work against ddstore-serve and ddstore-train alike.
const (
	// MetricFetchLatency is the per-sample fetch latency histogram: the
	// engine's per-unique-id load latency on the client side, the
	// per-request service latency on the server side.
	MetricFetchLatency = "ddstore_fetch_latency_seconds"
	// MetricEvents is the labeled event-counter family the trace/cache/
	// transport counter names feed: ddstore_events_total{event="cache-hits"}.
	MetricEvents = "ddstore_events_total"
	// MetricRegionSeconds / MetricRegionSteps are the profiler's per-region
	// accumulated time (seconds, as a monotonic gauge so fractional virtual
	// time survives) and occurrence count.
	MetricRegionSeconds = "ddstore_region_seconds_total"
	MetricRegionSteps   = "ddstore_region_steps_total"

	// Serving front-end metrics (internal/frontend + transport server).
	// MetricAcceptRejected counts connections turned away at the accept
	// loop because the server's concurrent-connection semaphore was full.
	MetricAcceptRejected = "ddstore_serve_accept_rejected_total"
	// MetricConnRejected counts connections admitted by the accept loop
	// but refused by the front end (tenant conn cap, global cap, drain).
	MetricConnRejected = "ddstore_serve_conn_rejected_total"
	// MetricTenantRequests counts admitted requests per tenant and
	// priority class: {tenant=...,class=...}.
	MetricTenantRequests = "ddstore_tenant_requests_total"
	// MetricTenantShed counts shed requests per tenant and reason:
	// {tenant=...,reason=rate|bytes|queue|drain}.
	MetricTenantShed = "ddstore_tenant_shed_total"
	// MetricQueueDepth gauges the front end's current queue depth per
	// priority class.
	MetricQueueDepth = "ddstore_frontend_queue_depth"
	// MetricQueueWait is the time-in-queue histogram per priority class.
	MetricQueueWait = "ddstore_frontend_queue_wait_seconds"
	// MetricServiceByClass is the service-time histogram per priority
	// class (admission grant to response written).
	MetricServiceByClass = "ddstore_frontend_service_seconds"
	// MetricConnsOpen gauges currently admitted connections per tenant.
	MetricConnsOpen = "ddstore_frontend_conns_open"
	// MetricDraining is 1 while the server is draining, else 0.
	MetricDraining = "ddstore_serve_draining"
	// MetricShardMapGeneration gauges the live shard map generation of the
	// elastic ownership store. Monotonically non-decreasing; a reshard
	// bumps it by one once migration completes.
	MetricShardMapGeneration = "ddstore_shardmap_generation"
	// MetricShardMapChunksMoved counts shard moves executed by resharding
	// migrations (one per shard that changed owners and was pulled).
	MetricShardMapChunksMoved = "ddstore_shardmap_chunks_moved_total"
	// MetricMigrationBytes is the per-generation migration volume
	// histogram: encoded sample bytes pulled to their new owners.
	MetricMigrationBytes = "ddstore_shardmap_migration_bytes"
	// MetricMigrationSeconds is the per-generation migration duration
	// histogram, from planning to publishing the new generation.
	MetricMigrationSeconds = "ddstore_shardmap_migration_seconds"

	// MetricBuildInfo is the constant-1 build identity gauge
	// (ddstore_build_info{version=...,go=...}); dashboards join it to pin
	// which binary produced a metric series.
	MetricBuildInfo = "ddstore_build_info"
	// MetricUptime gauges seconds since the process registered its
	// collectors — the scrape-side signal for restart detection.
	MetricUptime = "ddstore_process_uptime_seconds"
)

// Version identifies the build in ddstore_build_info. Overridable at link
// time: -ldflags "-X ddstore/internal/obs.Version=v1.2.3".
var Version = "dev"

// CollectBuildInfo registers the build-identity gauge (constant 1, with
// the version and Go runtime as labels) and the process-uptime gauge.
func CollectBuildInfo(reg *Registry) {
	reg.Help(MetricBuildInfo, "Build identity: constant 1 with version/go labels.")
	reg.Help(MetricUptime, "Seconds since this process registered its collectors.")
	reg.Gauge(MetricBuildInfo, "version", Version, "go", runtime.Version()).Set(1)
	start := time.Now()
	reg.AddCollector(func() {
		reg.Gauge(MetricUptime).Set(time.Since(start).Seconds())
	})
}

// DrainingGauge returns the canonical draining gauge of a registry,
// registering its help text on first use.
func DrainingGauge(reg *Registry) *Gauge {
	reg.Help(MetricDraining, "1 while the server is draining (refusing new work), else 0.")
	return reg.Gauge(MetricDraining)
}

// ShardMapGenerationGauge returns the canonical shard-map generation
// gauge of a registry, registering its help text on first use.
func ShardMapGenerationGauge(reg *Registry) *Gauge {
	reg.Help(MetricShardMapGeneration, "Live shard map generation (monotonically non-decreasing).")
	return reg.Gauge(MetricShardMapGeneration)
}

// ShardMapChunksMovedCounter returns the canonical chunks-moved counter of
// a registry, registering its help text on first use.
func ShardMapChunksMovedCounter(reg *Registry) *Counter {
	reg.Help(MetricShardMapChunksMoved, "Shard moves executed by resharding migrations.")
	return reg.Counter(MetricShardMapChunksMoved)
}

// MigrationBytesHistogram returns the canonical per-migration byte-volume
// histogram of a registry (buckets 4KiB..~4GiB).
func MigrationBytesHistogram(reg *Registry) *Histogram {
	h := reg.Histogram(MetricMigrationBytes, ExpBuckets(4096, 4, 11))
	reg.Help(MetricMigrationBytes, "Encoded bytes pulled per resharding migration.")
	return h
}

// MigrationSecondsHistogram returns the canonical per-migration duration
// histogram of a registry.
func MigrationSecondsHistogram(reg *Registry) *Histogram {
	h := reg.Histogram(MetricMigrationSeconds, DefLatencyBuckets)
	reg.Help(MetricMigrationSeconds, "Wall time per resharding migration, planning to publish.")
	return h
}

// FetchLatencyHistogram returns the canonical fetch-latency histogram of a
// registry (creating it with the default bucket spread).
func FetchLatencyHistogram(reg *Registry) *Histogram {
	h := reg.Histogram(MetricFetchLatency, DefLatencyBuckets)
	reg.Help(MetricFetchLatency, "Per-sample fetch latency (client engine) or per-request service latency (server).")
	return h
}

// CounterSink adapts a labeled registry counter family to the
// Inc(name, delta) interface cache.Counters and transport.Counters share
// (trace.Profiler is the other implementation), so event counters flow
// live into the registry: Inc("cache-hits", 1) bumps
// metric{labelKey="cache-hits"}.
type CounterSink struct {
	reg      *Registry
	metric   string
	labelKey string
}

// NewCounterSink builds a sink over metric/labelKey and pre-registers the
// known label values at zero, so a scrape before any traffic still shows
// every series a dashboard expects.
func NewCounterSink(reg *Registry, metric, labelKey string, known ...string) *CounterSink {
	for _, name := range known {
		reg.Counter(metric, labelKey, name)
	}
	return &CounterSink{reg: reg, metric: metric, labelKey: labelKey}
}

// Inc implements the counter-sink interface.
func (s *CounterSink) Inc(name string, delta int64) {
	s.reg.Counter(s.metric, s.labelKey, name).Add(delta)
}

// EventSink returns the canonical ddstore_events_total{event=...} sink of a
// registry.
func EventSink(reg *Registry) *CounterSink {
	reg.Help(MetricEvents, "DDStore event counts: cache hits/misses/evictions, transport retries/failovers/timeouts.")
	return NewCounterSink(reg, MetricEvents, "event")
}

// AddProfiler folds a finished run's profiler into the registry with Add
// semantics, so several runs accumulate (the bench suite's registry).
func AddProfiler(reg *Registry, p *trace.Profiler) {
	for _, r := range p.Regions() {
		reg.Gauge(MetricRegionSeconds, "region", r.Name).Add(r.Total.Seconds())
		reg.Counter(MetricRegionSteps, "region", r.Name).Add(r.Count)
	}
	for name, v := range p.Counters() {
		reg.Counter(MetricEvents, "event", name).Add(v)
	}
}

// CollectCache registers a collector that mirrors a cache's statistics
// into the registry on every scrape: the event totals plus resident
// entry/byte gauges.
func CollectCache(reg *Registry, get func() cache.Stats) {
	reg.Help("ddstore_cache_entries", "Resident hot-sample cache entries.")
	reg.Help("ddstore_cache_bytes", "Resident hot-sample cache bytes.")
	reg.AddCollector(func() {
		st := get()
		reg.Counter(MetricEvents, "event", cache.CounterHits).Set(st.Hits)
		reg.Counter(MetricEvents, "event", cache.CounterMisses).Set(st.Misses)
		reg.Counter(MetricEvents, "event", cache.CounterCoalesced).Set(st.Coalesced)
		reg.Counter(MetricEvents, "event", cache.CounterEvictions).Set(st.Evictions)
		reg.Gauge("ddstore_cache_entries").Set(float64(st.Entries))
		reg.Gauge("ddstore_cache_bytes").Set(float64(st.Bytes))
		reg.Gauge("ddstore_cache_hit_rate").Set(st.HitRate())
	})
}

// CollectGoRuntime registers the standard Go process gauges: goroutines,
// heap residency, GC cycles.
func CollectGoRuntime(reg *Registry) {
	reg.Help("go_goroutines", "Live goroutines.")
	reg.Help("go_heap_alloc_bytes", "Heap bytes allocated and in use.")
	reg.AddCollector(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reg.Gauge("go_goroutines").Set(float64(runtime.NumGoroutine()))
		reg.Gauge("go_heap_alloc_bytes").Set(float64(ms.HeapAlloc))
		reg.Gauge("go_sys_bytes").Set(float64(ms.Sys))
		reg.Counter("go_gc_cycles_total").Set(int64(ms.NumGC))
	})
}
