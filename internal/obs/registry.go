// Package obs is DDStore's run-wide observability layer: a typed metrics
// registry every existing signal feeds into (trace region timings and event
// counters, cache statistics, fetch latencies, transport resilience
// counters), per-batch span tracing exportable as Chrome trace-event JSON,
// and an HTTP debug server (/metrics, /healthz, net/http/pprof).
//
// The registry holds three instrument kinds:
//
//   - Counter: a monotonic int64 total (atomic).
//   - Gauge: a settable float64 level (atomic).
//   - Histogram: a bounded-bucket distribution with sum and count. Bucket
//     bounds are fixed at creation, so memory never grows with traffic.
//
// Instruments are identified by metric name plus an optional label set, the
// same data model Prometheus uses; Snapshot returns a JSON-friendly
// point-in-time copy and WritePrometheus renders the text exposition format
// (version 0.0.4) a Prometheus server scrapes.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind distinguishes the instrument types of a Registry.
type Kind uint8

// The three instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing total. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (negative deltas are ignored — a
// counter never goes down).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the counter with an externally observed total — the hook
// snapshot-fed collectors use when an upstream component (a profiler, a
// cache) already accumulates the monotonic total itself.
func (c *Counter) Set(total int64) { c.v.Store(total) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a level that can go up and down. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf overflow
// bucket. Bounds are fixed at creation, so a histogram's memory is constant
// no matter how much traffic it sees.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds (exclusive of +Inf)
	counts []uint64  // len(bounds)+1; last is the +Inf overflow
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot returns cumulative bucket counts, sum, and count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.total
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start: start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 10µs to ~1.3s in powers of two — wide enough for
// both in-memory reads and multi-retry TCP fetches.
var DefLatencyBuckets = ExpBuckets(10e-6, 2, 18)

// Label is one name/value pair attached to an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// series is one instrument plus its identity within a family.
type series struct {
	labels []Label // sorted by key
	sig    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	kind   Kind
	help   string
	bounds []float64 // histogram families only
	series map[string]*series
	sigs   []string // insertion order; output sorts
}

// Registry holds instruments and renders them as snapshots or Prometheus
// text. All methods are safe for concurrent use; instrument handles may be
// cached by hot paths so steady-state recording is lock-free (counters,
// gauges) or a single short mutex (histograms).
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelsFromPairs validates and sorts alternating key/value pairs.
func labelsFromPairs(pairs []string) ([]Label, string) {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %q", pairs))
	}
	ls := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Key: pairs[i], Value: pairs[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return ls, b.String()
}

// seriesFor returns (creating if needed) the series of one name+labels,
// enforcing kind consistency within the family.
func (r *Registry) seriesFor(name string, kind Kind, bounds []float64, pairs []string) *series {
	labels, sig := labelsFromPairs(pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		if kind == KindHistogram {
			f.bounds = append([]float64(nil), bounds...)
		}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: labels, sig: sig}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
		}
		f.series[sig] = s
		f.sigs = append(f.sigs, sig)
	}
	return s
}

// Counter returns (creating if needed) the counter of one name plus
// alternating label key/value pairs: r.Counter("ddstore_events_total",
// "event", "cache-hits").
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return r.seriesFor(name, KindCounter, nil, labelPairs).c
}

// Gauge returns (creating if needed) the gauge of one name+labels.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return r.seriesFor(name, KindGauge, nil, labelPairs).g
}

// Histogram returns (creating if needed) the histogram of one name+labels.
// The bucket bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labelPairs ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	return r.seriesFor(name, KindHistogram, buckets, labelPairs).h
}

// Help attaches a # HELP line to a metric name (creating the family record
// lazily is not needed — call after the first instrument registration).
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	if f, ok := r.fams[name]; ok {
		f.help = help
	}
	r.mu.Unlock()
}

// AddCollector registers a function run before every Snapshot and
// WritePrometheus — the hook that folds pull-time state (profiler totals,
// cache statistics, runtime memory) into the registry.
func (r *Registry) AddCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// collect runs the registered collectors outside the registry lock (they
// call back into instrument getters, which lock).
func (r *Registry) collect() {
	r.mu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// CounterPoint is one counter series in a Snapshot.
type CounterPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugePoint is one gauge series in a Snapshot.
type GaugePoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram series in a Snapshot. Buckets are
// cumulative counts aligned with UpperBounds; the last bucket is +Inf (its
// bound is reported as +Inf by math, omitted from UpperBounds).
type HistogramPoint struct {
	Name        string    `json:"name"`
	Labels      []Label   `json:"labels,omitempty"`
	UpperBounds []float64 `json:"upper_bounds"`
	Cumulative  []uint64  `json:"cumulative"`
	Sum         float64   `json:"sum"`
	Count       uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument, ordered by metric
// name then label signature — deterministic, so it can be diffed and
// golden-tested.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// famView is one family's mutable state — help text and series list —
// captured under the registry lock, so readers never touch the live maps
// while seriesFor is inserting or Help is writing. Name, kind, and bucket
// bounds are immutable after creation; the instruments themselves are safe
// to read lock-free.
type famView struct {
	*family
	help    string
	ordered []*series
}

// sortedFamilies returns a consistent view of every family ordered by
// name, each with its series sorted by label signature.
func (r *Registry) sortedFamilies() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]famView, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, famView{family: f, help: f.help, ordered: f.sortedSeriesLocked()})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Snapshot runs the collectors and returns a copy of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.collect()
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		for _, s := range f.ordered {
			switch f.kind {
			case KindCounter:
				snap.Counters = append(snap.Counters, CounterPoint{Name: f.name, Labels: s.labels, Value: s.c.Value()})
			case KindGauge:
				snap.Gauges = append(snap.Gauges, GaugePoint{Name: f.name, Labels: s.labels, Value: s.g.Value()})
			case KindHistogram:
				cum, sum, total := s.h.snapshot()
				snap.Histograms = append(snap.Histograms, HistogramPoint{
					Name:        f.name,
					Labels:      s.labels,
					UpperBounds: append([]float64(nil), f.bounds...),
					Cumulative:  cum,
					Sum:         sum,
					Count:       total,
				})
			}
		}
	}
	return snap
}

// JSON renders the snapshot as indented JSON with stable field order.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// sortedSeriesLocked returns the family's series sorted by label
// signature; the caller must hold the registry lock.
func (f *family) sortedSeriesLocked() []*series {
	sigs := append([]string(nil), f.sigs...)
	sort.Strings(sigs)
	out := make([]*series, 0, len(sigs))
	for _, sig := range sigs {
		out = append(out, f.series[sig])
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatLabels renders {k="v",...} with an optional extra pair appended
// (the histogram le bound).
func formatLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus runs the collectors and renders every instrument in the
// Prometheus text exposition format (version 0.0.4), families sorted by
// name and series by label signature so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.ordered {
			var err error
			switch f.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, "", ""), s.c.Value())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, "", ""), formatFloat(s.g.Value()))
			case KindHistogram:
				cum, sum, total := s.h.snapshot()
				for i, bound := range f.bounds {
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, formatLabels(s.labels, "le", formatFloat(bound)), cum[i]); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, formatLabels(s.labels, "le", "+Inf"), cum[len(cum)-1]); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", f.name, formatLabels(s.labels, "", ""), formatFloat(sum)); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(s.labels, "", ""), total)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
