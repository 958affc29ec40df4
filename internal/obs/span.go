// Span tracing: every batch load and owner fetch records a Span into a
// bounded per-rank ring, tagged with rank, epoch, step, owner, sample and
// byte counts, and cache hit/miss. Rings export as Chrome trace-event JSON
// (the about://tracing / Perfetto format), so one training run opens as a
// per-rank, per-thread timeline.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval on a rank's timeline. Start and Dur are
// offsets on the rank's clock — virtual time under a machine model, wall
// time otherwise; either way the per-rank timelines are mutually
// comparable.
type Span struct {
	Name     string        `json:"name"`
	Cat      string        `json:"cat"` // "train" (DDP), "fetch" (engine), "server" (remote timing)
	Rank     int           `json:"rank"`
	Epoch    int           `json:"epoch"`
	Step     int           `json:"step"`
	Owner    int           `json:"owner"` // -1 when not owner-specific
	Samples  int           `json:"samples"`
	Bytes    int64         `json:"bytes"`
	CacheHit bool          `json:"cache_hit"`
	Start    time.Duration `json:"start"`
	Dur      time.Duration `json:"dur"`

	// Distributed-tracing identity (zero when the span is untraced): which
	// request tree the span belongs to, its own id, and its parent's.
	TraceID  uint64 `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Server-reported attribution, merged from the timing trailer: the
	// tenant queue the request was charged to and the shard map generation
	// it was served under. ShardLo is the lower bound of the shard the
	// request's first sample routed through (meaningful with Gen set).
	Tenant  string `json:"tenant,omitempty"`
	Gen     uint64 `json:"gen,omitempty"`
	ShardLo int64  `json:"shard_lo,omitempty"`
}

// EpochNow returns the wall clock as an offset from the Unix epoch — the
// shared clock origin for real-time span recording. Rings filled against
// EpochNow from different processes (a trainer and the owners it fetched
// from, loadgen on another machine) line up when merged into one Chrome
// trace, because every timestamp is absolute: Ts = unix time in
// microseconds. Chrome's float64 microsecond timestamps carry ~53 bits of
// precision, which holds sub-microsecond resolution for wall-clock values
// through this century. Machine-model runs keep their virtual clocks; only
// real-time recording anchors here.
func EpochNow() time.Duration { return time.Duration(time.Now().UnixNano()) }

// SpanRing is a bounded ring of spans for one rank. When full, the oldest
// span is overwritten (and counted as dropped), so a long run retains its
// most recent window at constant memory. Safe for concurrent use —
// concurrent loads and the training loop record into the same ring.
type SpanRing struct {
	rank  int
	pid   int    // Chrome trace pid; defaults to rank, overridden by TraceSink
	label string // Chrome trace process name; default "rank N"

	epoch atomic.Int64
	step  atomic.Int64

	mu      sync.Mutex
	buf     []Span
	idx     int
	n       int
	dropped int64
}

// DefaultSpanCap bounds a ring when the caller passes no capacity.
const DefaultSpanCap = 1 << 16

// NewSpanRing returns a ring of at most capacity spans (<= 0 means
// DefaultSpanCap) for the given rank.
func NewSpanRing(capacity, rank int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRing{
		rank:  rank,
		pid:   rank,
		label: fmt.Sprintf("rank %d", rank),
		buf:   make([]Span, capacity),
	}
}

// SetLabel overrides the Chrome trace process name.
func (r *SpanRing) SetLabel(label string) { r.label = label }

// SetContext sets the epoch/step tags applied to subsequently recorded
// spans. The training loop calls it once per step; spans recorded by
// background prefetch workers inherit the loop's current step, which may
// lag the batch being prefetched by one — a tagging approximation, not a
// timing error.
func (r *SpanRing) SetContext(epoch, step int) {
	r.epoch.Store(int64(epoch))
	r.step.Store(int64(step))
}

// Record appends one span, stamping it with the ring's rank and current
// epoch/step context.
func (r *SpanRing) Record(s Span) {
	s.Rank = r.rank
	s.Epoch = int(r.epoch.Load())
	s.Step = int(r.step.Load())
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.dropped++
	} else {
		r.n++
	}
	r.buf[r.idx] = s
	r.idx = (r.idx + 1) % len(r.buf)
	r.mu.Unlock()
}

// RecordAll appends several spans under one lock acquisition. The traced
// fetch path synthesizes a few server segments per request; batching them
// keeps ring contention flat as request rate grows.
func (r *SpanRing) RecordAll(spans ...Span) {
	epoch := int(r.epoch.Load())
	step := int(r.step.Load())
	r.mu.Lock()
	for _, s := range spans {
		s.Rank = r.rank
		s.Epoch = epoch
		s.Step = step
		if r.n == len(r.buf) {
			r.dropped++
		} else {
			r.n++
		}
		r.buf[r.idx] = s
		r.idx = (r.idx + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *SpanRing) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.n)
	start := (r.idx - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len returns the number of retained spans.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many spans were overwritten because the ring was
// full.
func (r *SpanRing) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

const us = float64(time.Microsecond)

// WriteChromeTrace renders the rings as one Chrome trace-event JSON object
// ({"traceEvents": [...]}) loadable by about://tracing and Perfetto. Each
// ring becomes one process (pid = rank), with the span categories mapped to
// named threads within it.
func WriteChromeTrace(w io.Writer, rings ...*SpanRing) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.Write([]byte{',', '\n'}); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	for _, ring := range rings {
		if ring == nil {
			continue
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: ring.pid,
			Args: map[string]any{"name": ring.label}}); err != nil {
			return err
		}
		tids := map[string]int{}
		for _, s := range ring.Spans() {
			tid, ok := tids[s.Cat]
			if !ok {
				tid = len(tids)
				tids[s.Cat] = tid
				if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: ring.pid, Tid: tid,
					Args: map[string]any{"name": s.Cat}}); err != nil {
					return err
				}
			}
			args := map[string]any{"epoch": s.Epoch, "step": s.Step, "samples": s.Samples}
			if s.Owner >= 0 {
				args["owner"] = s.Owner
			}
			if s.Bytes > 0 {
				args["bytes"] = s.Bytes
			}
			args["cache_hit"] = s.CacheHit
			if s.TraceID != 0 {
				args["trace_id"] = fmt.Sprintf("%016x", s.TraceID)
				if s.SpanID != 0 {
					args["span_id"] = fmt.Sprintf("%016x", s.SpanID)
				}
				if s.ParentID != 0 {
					args["parent_id"] = fmt.Sprintf("%016x", s.ParentID)
				}
			}
			if s.Tenant != "" {
				args["tenant"] = s.Tenant
			}
			if s.Gen != 0 {
				args["gen"] = s.Gen
				args["shard_lo"] = s.ShardLo
			}
			if err := emit(chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X", Pid: ring.pid, Tid: tid,
				Ts: float64(s.Start) / us, Dur: float64(s.Dur) / us, Args: args,
			}); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// TraceSink collects span rings from many runs (the bench suite) and
// assigns each a distinct Chrome trace pid, so rank 0 of two different
// experiments does not collide in the exported timeline.
type TraceSink struct {
	mu    sync.Mutex
	cap   int
	rings []*SpanRing
}

// NewTraceSink returns a sink whose rings hold at most capPerRing spans
// (<= 0 means DefaultSpanCap).
func NewTraceSink(capPerRing int) *TraceSink { return &TraceSink{cap: capPerRing} }

// NewRing registers and returns a fresh ring labeled "<label> rank N".
func (t *TraceSink) NewRing(label string, rank int) *SpanRing {
	r := NewSpanRing(t.cap, rank)
	t.mu.Lock()
	r.pid = len(t.rings)
	if label != "" {
		r.label = fmt.Sprintf("%s rank %d", label, rank)
	}
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// Rings returns the registered rings in registration order.
func (t *TraceSink) Rings() []*SpanRing {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*SpanRing(nil), t.rings...)
}

// WriteChromeTrace renders every registered ring as one Chrome trace.
func (t *TraceSink) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Rings()...)
}
