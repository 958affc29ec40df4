// Package loadgen drives remote ddstore-serve processes — the one job the
// in-process ledger under benchmark/ cannot do: N concurrent workers on the
// real TCP data plane in open-loop (fixed-QPS token bucket, measuring
// queue-induced latency) or closed-loop (back-to-back, measuring maximum
// sustainable throughput) phases, with a configurable mix of single OpGet
// lookups vs OpGetBatch bulk fetches, every answer checked against the id
// asked for.
//
// One runner (Run) and one result (Result): a run is a sequence of Phases,
// each producing a PhaseResult with latency percentiles, achieved QPS,
// error/shed/retry counts and bytes moved, plus an optional scrape of the
// server's /metrics. A scenario is several runs at once — one per tenant,
// a reshard fired from a Phase.Before or a curl (scripts/smoke-elastic.sh).
// Results render as a bench.Report table or a versioned JSON artifact.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/stats"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

// Mode selects how a phase paces its requests.
type Mode string

const (
	// Open paces requests at a fixed target QPS with a token bucket;
	// latency is measured from the token's scheduled issue time, so a
	// server that cannot keep up shows queue-induced latency growth —
	// the honest open-loop number coordinated-omission hides.
	Open Mode = "open"
	// Closed issues requests back to back from every worker; throughput
	// is bounded by server capacity and round-trip time.
	Closed Mode = "closed"
)

// Phase is one step of a load run.
type Phase struct {
	// Name labels the phase in tables and artifacts ("closed-cold-c8").
	Name string
	// Mode is Open or Closed.
	Mode Mode
	// Workers is the number of concurrent client workers.
	Workers int
	// TargetQPS is the token-bucket rate for Open phases.
	TargetQPS float64
	// Duration bounds the phase's wall clock. For Closed phases with
	// MaxRequests it is a safety cap (0 = none).
	Duration time.Duration
	// MaxRequests, for Closed phases, issues exactly this many requests
	// and stops — the deterministic quick mode.
	MaxRequests int64
	// Mix is the fraction of requests issued as OpGetBatch bulk fetches
	// (0 = all single OpGet lookups, 1 = all batches).
	Mix float64
	// BatchSize is the ids per batch request (default 8).
	BatchSize int
	// Seed, when non-zero, pins this phase's request stream instead of
	// deriving it from the phase index. A warm phase that shares its cold
	// partner's seed (and worker count) replays the exact same id
	// sequence, so warm-vs-cold isolates the server cache.
	Seed uint64
	// Before, if set, runs just before the phase starts — the hook a
	// harness uses to reset a server cache for a cold phase or to fire a
	// reshard under the phase. Not part of the artifact.
	Before func()
}

// Config describes a full load run against one or more live servers.
type Config struct {
	// Addrs are the ddstore-serve endpoints to drive. Each worker draws a
	// target uniformly per request, so load spreads across the cluster.
	Addrs []string
	// Seed makes the id streams reproducible (0 = 1).
	Seed uint64
	// Lo, Hi, when Hi > Lo, give the id range served by every addr and
	// skip the startup shard map probes — the knob for driving a cluster so
	// faulty that even discovery round trips may fail.
	Lo, Hi int64
	// Phases run in order.
	Phases []Phase
	// Policy is the per-client retry/deadline policy (zero = defaults).
	Policy transport.RetryPolicy
	// Dialer overrides the TCP dialer — the faultnet seam (nil = TCP).
	Dialer transport.DialFunc
	// MetricsURL, when set, is scraped after every phase and the
	// ddstore_* families attached to the PhaseResult.
	MetricsURL string
	// Tenant, when set, is declared to the server on every connection
	// (the hello frame), so a front-end-enabled server charges this
	// run's traffic to that tenant's budget.
	Tenant string
	// Elastic routes every request through one shared elastic
	// transport.Group bootstrapped from Addrs instead of per-address
	// pooled clients: ownership follows the cluster's live shard map, so
	// a mid-run reshard costs the workers a stale-generation refresh
	// round trip instead of hard errors. The id range comes from the
	// bootstrapped map (Lo/Hi still override it), and the per-address
	// shard map probes are skipped.
	Elastic bool
	// Trace opens a sampled distributed trace per request: clients
	// trace (ClientOptions.Tracing), every request carries a fresh root
	// context over the wire, and the servers' timing trailers come back
	// as merged "server" spans (see TraceSpans). Slowest exemplars in the
	// artifact then carry trace ids that link to spans in the Chrome trace.
	Trace bool
	// TraceSpans, when non-nil with Trace set, receives the client root
	// span of every traced request plus the synthesized server segments —
	// the ring behind ddstore-bench's -trace-out merged Chrome trace.
	TraceSpans *obs.SpanRing
}

// PhaseResult is the measured outcome of one phase. Field names and types
// are pinned by the artifact golden test: scripts read them, so additions
// are fine but renames are not.
type PhaseResult struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	TargetQPS float64 `json:"target_qps,omitempty"`
	BatchMix  float64 `json:"batch_mix"`
	BatchSize int     `json:"batch_size,omitempty"`
	DurationS float64 `json:"duration_s"`
	Requests  int64   `json:"requests"`
	Samples   int64   `json:"samples"`
	Errors    int64   `json:"errors"`
	// Tenant is the identity this run declared; Shed counts requests the
	// server refused with the overloaded status (admission control working
	// as intended — kept distinct from Errors, which mean breakage).
	Tenant     string `json:"tenant,omitempty"`
	Shed       int64  `json:"shed,omitempty"`
	Retries    int64  `json:"retries"`
	Reconnects int64  `json:"reconnects"`
	GiveUps    int64  `json:"giveups"`
	// StaleRetries counts requests that were re-routed after a
	// stale-generation answer installed a newer shard map — the elastic
	// mode's "the chunk moved under you" events, which cost one extra
	// round trip each but are not errors.
	StaleRetries int64   `json:"stale_retries,omitempty"`
	Dropped      int64   `json:"dropped_tokens,omitempty"`
	Bytes        int64   `json:"bytes"`
	AchievedQPS  float64 `json:"achieved_qps"`
	SamplesPerS  float64 `json:"samples_per_s"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	// Server holds the post-phase /metrics scrape (ddstore_* families),
	// keyed by series name including labels.
	Server map[string]float64 `json:"server_metrics,omitempty"`
	// Slowest holds the phase's worst-latency exemplars (up to
	// slowestPerPhase, worst first). With Config.Trace each carries its
	// trace id and the server's reported service time, so the artifact's
	// tail links straight to spans in the merged Chrome trace.
	Slowest []SlowRequest `json:"slowest,omitempty"`
	// firstErr is the first of Errors, for the report to print verbatim.
	firstErr error
}

// SlowRequest is one tail-latency exemplar in a phase artifact.
type SlowRequest struct {
	LatencyMs float64 `json:"latency_ms"`
	Op        string  `json:"op"` // "get", "batch", or "elastic-load"
	Samples   int64   `json:"samples"`
	Bytes     int64   `json:"bytes"`
	TraceID   string  `json:"trace_id,omitempty"`
	// ServerMs is the server-reported service time from the timing
	// trailer; the gap to LatencyMs is network plus client overhead.
	ServerMs float64 `json:"server_ms,omitempty"`
}

// slowestPerPhase bounds the exemplar list kept per phase (and per worker
// while the phase runs).
const slowestPerPhase = 5

// Result is a completed (or cancelled) load run.
type Result struct {
	Addrs  []string            `json:"addrs"`
	Seed   uint64              `json:"seed"`
	Phases []PhaseResult       `json:"phases"`
	Pool   transport.PoolStats `json:"pool"`
}

// target is one server and its advertised sample range.
type target struct {
	addr   string
	lo, hi int64
}

func validate(cfg Config) error {
	if len(cfg.Addrs) == 0 {
		return fmt.Errorf("loadgen: no server addresses")
	}
	if len(cfg.Phases) == 0 {
		return fmt.Errorf("loadgen: no phases")
	}
	for i, ph := range cfg.Phases {
		switch ph.Mode {
		case Open:
			if ph.TargetQPS <= 0 {
				return fmt.Errorf("loadgen: phase %d (%s): open loop needs TargetQPS > 0", i, ph.Name)
			}
			if ph.Duration <= 0 {
				return fmt.Errorf("loadgen: phase %d (%s): open loop needs Duration > 0", i, ph.Name)
			}
		case Closed:
			if ph.Duration <= 0 && ph.MaxRequests <= 0 {
				return fmt.Errorf("loadgen: phase %d (%s): closed loop needs Duration or MaxRequests", i, ph.Name)
			}
		default:
			return fmt.Errorf("loadgen: phase %d (%s): unknown mode %q", i, ph.Name, ph.Mode)
		}
		if ph.Workers <= 0 {
			return fmt.Errorf("loadgen: phase %d (%s): %d workers", i, ph.Name, ph.Workers)
		}
		if ph.Mix < 0 || ph.Mix > 1 {
			return fmt.Errorf("loadgen: phase %d (%s): batch mix %g outside [0,1]", i, ph.Name, ph.Mix)
		}
	}
	return nil
}

// Run executes every phase in order. On context cancellation it drains
// in-flight workers cleanly, returns the phases completed so far, and
// reports the context's error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// One profiler counts the transport's resilience events across every
	// client; phases report the difference between two readings.
	sink := trace.New()
	copts := transport.ClientOptions{
		Policy: cfg.Policy, Counters: sink, Dialer: cfg.Dialer, Tenant: cfg.Tenant, Tracing: cfg.Trace,
	}
	pool := transport.NewClientPool(copts)
	defer pool.Close()

	// Elastic mode: one shared group routes every worker's requests via
	// the live shard map; the map's keyspace replaces the per-address
	// probes.
	var group *transport.Group
	var targets []target
	if cfg.Elastic {
		var err error
		group, err = transport.NewElasticGroup(cfg.Addrs, transport.GroupOptions{Client: copts, Spans: cfg.TraceSpans})
		if err != nil {
			return nil, fmt.Errorf("loadgen: elastic bootstrap: %w", err)
		}
		defer group.Close()
		lo, hi := group.Range()
		if cfg.Hi > cfg.Lo {
			lo, hi = cfg.Lo, cfg.Hi
		}
		if hi <= lo {
			return nil, fmt.Errorf("loadgen: elastic map spans empty range [%d,%d)", lo, hi)
		}
		targets = []target{{addr: "elastic", lo: lo, hi: hi}}
	} else {
		// Discover each server's range once, from the keyspace of the shard
		// map it serves, so workers draw ids that the target actually owns.
		// An explicit Lo/Hi skips the probes.
		targets = make([]target, len(cfg.Addrs))
		for i, addr := range cfg.Addrs {
			lo, hi := cfg.Lo, cfg.Hi
			if hi <= lo {
				cl, err := pool.Get(addr)
				if err != nil {
					return nil, fmt.Errorf("loadgen: dial %s: %w", addr, err)
				}
				m, err := cl.ShardMap()
				pool.Put(cl)
				if err != nil {
					return nil, fmt.Errorf("loadgen: shard map %s: %w", addr, err)
				}
				lo, hi = m.Range() // never empty: a decoded map is validated
			}
			targets[i] = target{addr: addr, lo: lo, hi: hi}
		}
	}

	res := &Result{Addrs: cfg.Addrs, Seed: seed}
	for i, ph := range cfg.Phases {
		if ctx.Err() != nil {
			break
		}
		if ph.Before != nil {
			ph.Before()
		}
		phaseSeed := seed + uint64(i)*1_000_003
		if ph.Seed != 0 {
			phaseSeed = ph.Seed
		}
		pr := runPhase(ctx, ph, targets, pool, group, sink, phaseSeed, cfg.Trace, cfg.TraceSpans)
		pr.Tenant = cfg.Tenant
		if cfg.MetricsURL != "" {
			if m, err := ScrapeMetrics(cfg.MetricsURL); err == nil {
				pr.Server = m
			}
		}
		res.Phases = append(res.Phases, pr)
	}
	res.Pool = pool.Stats()
	return res, ctx.Err()
}

// workerStats is one worker's private tally, merged after the phase so
// the hot loop never shares a cache line.
type workerStats struct {
	lats    []time.Duration
	errors  int64
	shed    int64
	bytes   int64
	samples int64
	slow    []SlowRequest // worst-first, at most slowestPerPhase
	failed  error         // the first error that was not a shed
}

// fail tallies one unsuccessful request. Overload refusals are the server's
// admission control doing its job — counted apart from real failures.
func (ws *workerStats) fail(err error) {
	if errors.Is(err, transport.ErrOverloaded) {
		ws.shed++
		return
	}
	ws.errors++
	if ws.failed == nil {
		ws.failed = err
	}
}

// noteSlow offers one finished request as a tail exemplar, keeping the
// worker's worst slowestPerPhase in descending latency order.
func (ws *workerStats) noteSlow(sr SlowRequest) {
	i := len(ws.slow)
	for i > 0 && ws.slow[i-1].LatencyMs < sr.LatencyMs {
		i--
	}
	if i >= slowestPerPhase {
		return
	}
	ws.slow = append(ws.slow, SlowRequest{})
	copy(ws.slow[i+1:], ws.slow[i:])
	ws.slow[i] = sr
	if len(ws.slow) > slowestPerPhase {
		ws.slow = ws.slow[:slowestPerPhase]
	}
}

// mergeSlow folds every worker's exemplars into one worst-first list.
func mergeSlow(perWorker []workerStats) []SlowRequest {
	var all workerStats
	for i := range perWorker {
		for _, sr := range perWorker[i].slow {
			all.noteSlow(sr)
		}
	}
	return all.slow
}

func runPhase(ctx context.Context, ph Phase, targets []target, pool *transport.ClientPool,
	group *transport.Group, sink *trace.Profiler, seed uint64,
	traced bool, spans *obs.SpanRing) PhaseResult {

	batch := ph.BatchSize
	if batch <= 0 {
		batch = 8
	}
	before := sink.Counters()

	// Open loop: a dispatcher issues tokens carrying their scheduled time;
	// the bounded queue models the arrival queue, and a full queue drops
	// (and counts) tokens rather than blocking the schedule.
	var tokens chan time.Time
	var dropped atomic.Int64
	start := time.Now()
	var deadline time.Time
	if ph.Duration > 0 {
		deadline = start.Add(ph.Duration)
	}
	if ph.Mode == Open {
		tokens = make(chan time.Time, tokenQueueCap)
		go func() {
			defer close(tokens)
			interval := time.Duration(float64(time.Second) / ph.TargetQPS)
			if interval <= 0 {
				interval = time.Nanosecond
			}
			next := time.Now()
			timer := time.NewTimer(0)
			defer timer.Stop()
			if !timer.Stop() {
				<-timer.C
			}
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				if wait := next.Sub(now); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
						return
					case <-timer.C:
					}
				}
				select {
				case tokens <- next:
				default:
					dropped.Add(1)
				}
				next = next.Add(interval)
			}
		}()
	}

	// Closed loop with MaxRequests: a shared ticket counter makes the
	// total request count exact regardless of worker interleaving.
	var issued atomic.Int64

	perWorker := make([]workerStats, ph.Workers)
	var wg sync.WaitGroup
	for w := 0; w < ph.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)*7919))
			ws := &perWorker[w]

			// Each worker checks one client per distinct target out of the
			// pool for the phase and returns them on exit, so connections
			// stay warm across phases.
			clients := make(map[string]*transport.Client, len(targets))
			defer func() {
				for _, c := range clients {
					pool.Put(c)
				}
			}()

			ids := make([]int64, 0, batch)
			one := func(issuedAt time.Time) {
				t := targets[rng.Intn(len(targets))]
				bulk := rng.Float64() < ph.Mix
				ids = ids[:1]
				if bulk {
					ids = ids[:batch]
				}
				for i := range ids {
					ids[i] = t.lo + rng.Int63n(t.hi-t.lo)
				}
				var nbytes, nsamples int64
				var err error
				var tc tracectx.Context
				var timing *transport.ServerTiming
				if traced {
					tc = tracectx.New(true)
				}
				op := "get"
				reqStart := obs.EpochNow()
				if group != nil {
					// Elastic: the group resolves each id's owner under the
					// live map, coalesces, fails over, and refreshes on stale
					// generations; the worker only draws ids.
					op = "elastic-load"
					var lzs []*graph.Lazy
					lzs, _, err = group.LoadLazyTraced(ids, tc)
					for i, lz := range lzs {
						if lz.ID() != ids[i] && err == nil {
							err = wrongSample(ids[i], lz.ID())
						}
						nbytes += int64(lz.EncodedSize())
						lz.Release()
					}
					nsamples = int64(len(lzs))
				} else {
					cl, ok := clients[t.addr]
					if !ok {
						if cl, err = pool.Get(t.addr); err != nil {
							ws.fail(err)
							return
						}
						clients[t.addr] = cl
					}
					if bulk {
						op = "batch"
						var buf *bufarena.Buf
						var parts [][]byte
						if buf, parts, timing, err = cl.GetBatchBufsTraced(ids, tc); err == nil {
							nbytes, err = checkSamples(parts, ids)
							buf.Release()
						}
					} else {
						var raw []byte
						if raw, timing, err = cl.GetRawTraced(ids[0], tc); err == nil {
							nbytes, err = checkSamples([][]byte{raw}, ids)
						}
					}
					nsamples = int64(len(ids))
				}
				if err != nil {
					ws.fail(err)
					return
				}
				lat := time.Since(issuedAt)
				ws.lats = append(ws.lats, lat)
				ws.bytes += nbytes
				ws.samples += nsamples
				sr := SlowRequest{
					LatencyMs: lat.Seconds() * 1e3, Op: op,
					Samples: nsamples, Bytes: nbytes,
				}
				if traced {
					sr.TraceID = tracectx.IDString(tc.TraceID)
					if timing != nil {
						sr.ServerMs = timing.Service.Seconds() * 1e3
					}
				}
				ws.noteSlow(sr)
				if traced && spans != nil {
					end := obs.EpochNow()
					spans.Record(obs.Span{
						Name: op, Cat: "loadgen", Owner: -1,
						Samples: int(nsamples), Bytes: nbytes,
						Start: reqStart, Dur: end - reqStart,
						TraceID: tc.TraceID, SpanID: tc.SpanID,
					})
					// The elastic group records its own server segments; the
					// pooled-client paths surface theirs here.
					if timing != nil {
						spans.RecordAll(timing.Spans(tc, obs.Span{Owner: -1}, end)...)
					}
				}
			}

			switch ph.Mode {
			case Open:
				for tok := range tokens {
					select {
					case <-ctx.Done():
						// Drain without issuing: the dispatcher stops on
						// cancel, and leftover queued tokens must not keep
						// the phase alive.
						continue
					default:
					}
					one(tok)
				}
			case Closed:
				for {
					select {
					case <-ctx.Done():
						return
					default:
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						return
					}
					if ph.MaxRequests > 0 && issued.Add(1) > ph.MaxRequests {
						return
					}
					one(time.Now())
				}
			}
		}(w)
	}
	wg.Wait() // Open workers leave when the dispatcher closes tokens
	elapsed := time.Since(start)
	after := sink.Counters()
	delta := func(event string) int64 { return after[event] - before[event] }

	pr := PhaseResult{
		Name:      ph.Name,
		Mode:      string(ph.Mode),
		Workers:   ph.Workers,
		TargetQPS: ph.TargetQPS,
		BatchMix:  ph.Mix,
		DurationS: elapsed.Seconds(),
		Dropped:   dropped.Load(),
	}
	if ph.Mix > 0 {
		pr.BatchSize = batch
	}
	var all []time.Duration
	for i := range perWorker {
		ws := &perWorker[i]
		all = append(all, ws.lats...)
		pr.Errors += ws.errors
		if pr.firstErr == nil {
			pr.firstErr = ws.failed
		}
		pr.Shed += ws.shed
		pr.Bytes += ws.bytes
		pr.Samples += ws.samples
	}
	pr.Slowest = mergeSlow(perWorker)
	pr.Requests = int64(len(all)) + pr.Errors + pr.Shed
	pr.Retries = delta(transport.CounterRetries)
	pr.Reconnects = delta(transport.CounterReconnects)
	pr.GiveUps = delta(transport.CounterGiveUps)
	pr.StaleRetries = delta(transport.CounterStaleRefreshes)
	if secs := elapsed.Seconds(); secs > 0 {
		pr.AchievedQPS = float64(len(all)) / secs
		pr.SamplesPerS = float64(pr.Samples) / secs
	}
	if len(all) > 0 {
		msOf := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		pr.P50ms = msOf(stats.DurationPercentile(all, 50))
		pr.P95ms = msOf(stats.DurationPercentile(all, 95))
		pr.P99ms = msOf(stats.DurationPercentile(all, 99))
		pr.MaxMs = msOf(slices.Max(all))
	}
	return pr
}

// checkSamples holds a response to what was asked: one well-formed encoded
// sample per id, each carrying the id requested. The frame CRC vouches for
// the bytes in flight; this vouches that the server answered the question.
func checkSamples(parts [][]byte, ids []int64) (nbytes int64, err error) {
	if len(parts) != len(ids) {
		return 0, fmt.Errorf("loadgen: %d samples answered for %d ids", len(parts), len(ids))
	}
	for i, p := range parts {
		lz, err := graph.DecodeLazy(p, nil)
		if err != nil {
			return 0, fmt.Errorf("loadgen: sample %d: %w", ids[i], err)
		}
		if lz.ID() != ids[i] {
			return 0, wrongSample(ids[i], lz.ID())
		}
		nbytes += int64(len(p))
	}
	return nbytes, nil
}

func wrongSample(asked, got int64) error {
	return fmt.Errorf("loadgen: asked for sample %d, server answered with sample %d", asked, got)
}

// tokenQueueCap bounds the open-loop arrival queue. A server that falls
// behind sees latency grow up to the queue depth; beyond that, tokens are
// dropped and counted, keeping the generator itself unbounded-memory-safe.
const tokenQueueCap = 4096
