// Package flightrec is DDStore's always-on flight recorder: a bounded
// in-memory ring of structured records for the requests worth a second
// look — slow (over a configurable threshold), errored, shed by admission
// control, or re-routed after a stale-generation answer — each with its
// full timing breakdown (queue wait, service, chunk-source time), byte
// volume, tenant, shard-map generation, and trace ID.
//
// Unlike metrics (which average the tail away) and unlike sampling tracers
// (which usually miss the one request that mattered), the recorder keeps
// the most recent window of anomalies at constant memory, is always
// enabled, and is readable two ways: live over HTTP at
// /debug/flightrecorder on the debug mux, and as automatic JSON snapshots
// written to disk when the shed or stale-retry rate spikes (the Watcher) —
// so a 3 a.m. incident leaves evidence even if nobody was scraping.
package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies why a request was recorded.
type Kind string

// The record kinds.
const (
	// KindSlow marks a request whose total service time exceeded the
	// recorder's owner-configured slow threshold.
	KindSlow Kind = "slow"
	// KindError marks a request answered with an error status.
	KindError Kind = "error"
	// KindShed marks a request refused by admission control (overloaded).
	KindShed Kind = "shed"
	// KindStale marks a request answered with a stale-generation status
	// (or, client-side, re-routed after one).
	KindStale Kind = "stale"
)

// kinds is the fixed enumeration, for counters and JSON output.
var kinds = []Kind{KindSlow, KindError, KindShed, KindStale}

// Record is one captured request. Durations are exported in milliseconds
// so the JSON reads directly; TraceID is the 16-hex-digit form (empty for
// untraced requests).
type Record struct {
	Time        time.Time `json:"time"`
	Kind        Kind      `json:"kind"`
	Op          string    `json:"op"`
	Tenant      string    `json:"tenant,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	DurMs       float64   `json:"dur_ms"`
	QueueWaitMs float64   `json:"queue_wait_ms,omitempty"`
	SourceMs    float64   `json:"source_ms,omitempty"`
	Bytes       int64     `json:"bytes,omitempty"`
	Samples     int       `json:"samples,omitempty"`
	Generation  uint64    `json:"generation,omitempty"`
	Err         string    `json:"err,omitempty"`
}

// Ms converts a duration to the milliseconds Record fields carry.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DefaultCapacity bounds a recorder built with capacity <= 0.
const DefaultCapacity = 256

// Recorder is the bounded record ring. Safe for concurrent use: request
// handlers Add while HTTP reads Snapshot.
type Recorder struct {
	mu      sync.Mutex
	buf     []Record
	idx     int
	n       int
	dropped int64

	counts [4]atomic.Int64 // indexed by kind position in kinds
}

// New returns a recorder keeping the most recent capacity records
// (<= 0 means DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Record, capacity)}
}

func kindIndex(k Kind) int {
	for i, kk := range kinds {
		if kk == k {
			return i
		}
	}
	return -1
}

// Add appends one record, overwriting (and counting as dropped) the oldest
// when the ring is full. A zero Time is stamped with the current wall
// clock.
func (r *Recorder) Add(rec Record) {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if i := kindIndex(rec.Kind); i >= 0 {
		r.counts[i].Add(1)
	}
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.dropped++
	} else {
		r.n++
	}
	r.buf[r.idx] = rec
	r.idx = (r.idx + 1) % len(r.buf)
	r.mu.Unlock()
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.n)
	start := (r.idx - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Dropped returns how many records were overwritten because the ring was
// full.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Count returns the cumulative number of records ever added for a kind —
// monotonic even after the ring wraps, which is what the spike watcher
// rates on.
func (r *Recorder) Count(k Kind) int64 {
	if i := kindIndex(k); i >= 0 {
		return r.counts[i].Load()
	}
	return 0
}

// snapshot is the JSON document served over HTTP and written to disk.
type snapshot struct {
	Time    time.Time      `json:"time"`
	Reason  string         `json:"reason,omitempty"`
	Counts  map[Kind]int64 `json:"counts"`
	Dropped int64          `json:"dropped"`
	Records []Record       `json:"records"`
}

func (r *Recorder) snapshotDoc(reason string) snapshot {
	doc := snapshot{
		Time:    time.Now(),
		Reason:  reason,
		Counts:  make(map[Kind]int64, len(kinds)),
		Dropped: r.Dropped(),
		Records: r.Records(),
	}
	for _, k := range kinds {
		doc.Counts[k] = r.Count(k)
	}
	return doc
}

// Handler serves the recorder's current contents as JSON — the
// /debug/flightrecorder endpoint.
func (r *Recorder) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.snapshotDoc(""))
	}
}

// WriteSnapshot writes the recorder's current contents to dir as a
// timestamped JSON file and returns the file path.
func (r *Recorder) WriteSnapshot(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}
	doc := r.snapshotDoc(reason)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", doc.Time.UnixNano()))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}
	return path, nil
}

// WatchConfig tunes the spike watcher.
type WatchConfig struct {
	// Dir is where snapshots land. Required.
	Dir string
	// Interval is the rate-sampling period (default 2s).
	Interval time.Duration
	// ShedPerSec / StalePerSec are the record rates (per second, averaged
	// over one interval) that trigger a snapshot. <= 0 disables that
	// trigger; defaults 5/s shed, 5/s stale.
	ShedPerSec  float64
	StalePerSec float64
	// MinGap rate-limits snapshots: at most one per MinGap (default 30s),
	// so a sustained storm leaves a handful of files, not thousands.
	MinGap time.Duration
	// OnSnapshot, when set, observes every written snapshot path (tests,
	// log lines). Write errors surface as an empty path with the error.
	OnSnapshot func(path string, err error)
}

func (c WatchConfig) withDefaults() WatchConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.ShedPerSec == 0 {
		c.ShedPerSec = 5
	}
	if c.StalePerSec == 0 {
		c.StalePerSec = 5
	}
	if c.MinGap <= 0 {
		c.MinGap = 30 * time.Second
	}
	return c
}

// Watch starts a background goroutine that samples the shed and
// stale-retry record rates every Interval and snapshots the ring to disk
// when either spikes, at most once per MinGap. The returned stop function
// terminates the watcher (idempotent) and blocks until it has exited.
func (r *Recorder) Watch(cfg WatchConfig) (stop func()) {
	cfg = cfg.withDefaults()
	done := make(chan struct{})
	exited := make(chan struct{})
	// Baseline the counters before returning, so records added right after
	// Watch returns count toward the first interval's rate.
	lastShed := r.Count(KindShed)
	lastStale := r.Count(KindStale)
	go func() {
		defer close(exited)
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		var lastSnap time.Time
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			shed, stale := r.Count(KindShed), r.Count(KindStale)
			secs := cfg.Interval.Seconds()
			shedRate := float64(shed-lastShed) / secs
			staleRate := float64(stale-lastStale) / secs
			lastShed, lastStale = shed, stale

			var reason string
			switch {
			case cfg.ShedPerSec > 0 && shedRate >= cfg.ShedPerSec:
				reason = fmt.Sprintf("shed rate %.1f/s >= %.1f/s", shedRate, cfg.ShedPerSec)
			case cfg.StalePerSec > 0 && staleRate >= cfg.StalePerSec:
				reason = fmt.Sprintf("stale-retry rate %.1f/s >= %.1f/s", staleRate, cfg.StalePerSec)
			default:
				continue
			}
			if now := time.Now(); now.Sub(lastSnap) >= cfg.MinGap {
				lastSnap = now
				path, err := r.WriteSnapshot(cfg.Dir, reason)
				if cfg.OnSnapshot != nil {
					cfg.OnSnapshot(path, err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
