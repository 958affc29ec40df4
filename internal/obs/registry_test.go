package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	c.Add(-3) // negative deltas are ignored: counters are monotonic
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	c.Set(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Set: counter = %d, want 42", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{0.25, 0.5, 1})
	for _, v := range []float64{0.1, 0.25, 0.3, 0.75, 2} {
		h.Observe(v)
	}
	h.ObserveDuration(100 * time.Millisecond)
	cum, sum, total := h.snapshot()
	// 0.1, 0.25, 0.1s land <= 0.25; 0.3 <= 0.5; 0.75 <= 1; 2 overflows.
	want := []uint64{3, 4, 5, 6}
	for i, c := range cum {
		if c != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (all: %v)", i, c, want[i], cum)
		}
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if math.Abs(sum-(0.1+0.25+0.3+0.75+2+0.1)) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 4) did not panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over counter name did not panic")
		}
	}()
	reg.Gauge("m")
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label pairs did not panic")
		}
	}()
	reg.Counter("m", "key-without-value")
}

func TestRegistrySameSeriesSameInstrument(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("ev", "event", "hits")
	b := reg.Counter("ev", "event", "hits")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("instrument not shared")
	}
	// Label order must not matter.
	g1 := reg.Gauge("g", "a", "1", "b", "2")
	g2 := reg.Gauge("g", "b", "2", "a", "1")
	if g1 != g2 {
		t.Fatal("label order changed series identity")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz").Add(1)
	reg.Counter("aa", "k", "2").Add(2)
	reg.Counter("aa", "k", "1").Add(1)
	snap := reg.Snapshot()
	if len(snap.Counters) != 3 {
		t.Fatalf("counters = %d, want 3", len(snap.Counters))
	}
	if snap.Counters[0].Name != "aa" || snap.Counters[0].Labels[0].Value != "1" {
		t.Fatalf("order: %+v", snap.Counters)
	}
	if snap.Counters[2].Name != "zz" {
		t.Fatalf("order: %+v", snap.Counters)
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

func TestCollectorRunsOnSnapshot(t *testing.T) {
	reg := NewRegistry()
	n := 0
	reg.AddCollector(func() { n++; reg.Gauge("pull").Set(float64(n)) })
	reg.Snapshot()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("collector ran %d times, want 2", n)
	}
	if !strings.Contains(buf.String(), "pull 2") {
		t.Fatalf("exposition missing collector gauge:\n%s", buf.String())
	}
}

// TestRegistryConcurrent hammers Add/Inc/Set/Observe from many goroutines
// while snapshots and expositions run concurrently. Run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	sink := EventSink(reg)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram(MetricFetchLatency, nil)
			for i := 0; i < perWorker; i++ {
				reg.Counter("hits", "worker", string(rune('a'+w))).Inc()
				reg.Gauge("level").Set(float64(i))
				reg.Gauge("accum").Add(1)
				h.Observe(float64(i) * 1e-6)
				sink.Inc("cache-hits", 1)
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reg.Snapshot()
				reg.WritePrometheus(&bytes.Buffer{})
			}
		}()
	}
	wg.Wait()

	var total int64
	for _, cp := range reg.Snapshot().Counters {
		if cp.Name == "hits" {
			total += cp.Value
		}
	}
	if total != workers*perWorker {
		t.Fatalf("hits total = %d, want %d", total, workers*perWorker)
	}
	if got := reg.Counter(MetricEvents, "event", "cache-hits").Value(); got != workers*perWorker {
		t.Fatalf("events total = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("accum").Value(); got != workers*perWorker {
		t.Fatalf("accum gauge = %v, want %d", got, workers*perWorker)
	}
	if _, _, got := reg.Histogram(MetricFetchLatency, nil).snapshot(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestPrometheusGolden pins the exact text exposition format against a
// golden file (regenerate with go test ./internal/obs -run Golden -update).
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ddstore_events_total", "event", "cache-hits").Add(3)
	reg.Counter("ddstore_events_total", "event", "net-retries").Add(1)
	reg.Help("ddstore_events_total", "DDStore event counts.")
	reg.Gauge("ddstore_cache_bytes").Set(1.5e6)
	reg.Help("ddstore_cache_bytes", "Resident hot-sample cache bytes.")
	h := reg.Histogram("ddstore_fetch_latency_seconds", []float64{0.25, 0.5, 1})
	reg.Help("ddstore_fetch_latency_seconds", "Per-sample fetch latency.")
	h.Observe(0.125)
	h.Observe(0.375)
	h.Observe(2)
	reg.Gauge("ddstore_quantile", "quantile", "0.99", "plane", `tcp"w2\`).Set(0.0625)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}
