package transport

import (
	"math/rand"
	"time"
)

// RetryPolicy controls how a Client survives a faulty fabric: per-operation
// deadlines, and capped exponential backoff with jitter between attempts.
// The zero value means "use the defaults below"; set MaxAttempts to 1 for
// no retries and a timeout to a negative value to disable that deadline.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, including
	// the first. Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Default 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 250ms.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor. Default 2.
	Multiplier float64
	// Jitter is the +/- fraction of each delay drawn uniformly at random,
	// de-synchronizing clients that fail together. Default 0.2.
	Jitter float64
	// DialTimeout bounds each (re)connect. Default 2s.
	DialTimeout time.Duration
	// ReadTimeout is the per-operation response deadline. Default 5s.
	ReadTimeout time.Duration
	// WriteTimeout is the per-operation request deadline. Default 5s.
	WriteTimeout time.Duration
	// Seed seeds the jitter RNG so retry schedules are reproducible.
	// Default 1.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.DialTimeout == 0 {
		p.DialTimeout = 2 * time.Second
	}
	if p.ReadTimeout == 0 {
		p.ReadTimeout = 5 * time.Second
	}
	if p.WriteTimeout == 0 {
		p.WriteTimeout = 5 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// delay returns the backoff before retry attempt (attempt >= 1), with
// jitter drawn from rng.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Counters receives resilience event counts from the data plane.
// *trace.Profiler implements it, so retries/failovers/timeouts land in the
// same per-rank profile as the paper's region timings.
type Counters interface {
	Inc(name string, delta int64)
}

// Counter names recorded by the TCP data plane.
const (
	CounterRoundTrips     = "net-roundtrips"      // logical request/response operations issued
	CounterRetries        = "net-retries"         // operation attempts beyond the first
	CounterReconnects     = "net-reconnects"      // successful re-dials after a broken conn
	CounterTimeouts       = "net-timeouts"        // deadline-expired operations
	CounterChecksumErrors = "net-checksum-errors" // CRC32-rejected responses
	CounterFailovers      = "net-failovers"       // samples served by a non-preferred replica
	CounterGiveUps        = "net-giveups"         // operations that exhausted every attempt
	CounterOverloads      = "net-overloads"       // responses shed by server admission control
	CounterStaleRefreshes = "net-stale-refreshes" // shard map refreshes triggered by stale-generation responses
)

// nopCounters discards counts; used when no sink is configured.
type nopCounters struct{}

func (nopCounters) Inc(string, int64) {}
