// Package vtime provides virtual clocks and deterministic random number
// generation for the simulated-cluster execution mode.
//
// Every simulated rank owns a Clock. Real Go code executes (data is really
// moved, batches are really decoded) while the *time* each operation would
// take on the modeled machine is charged to the rank's clock. Synchronizing
// operations (barriers, collectives) align clocks to the maximum of the
// participants, which reproduces straggler effects: one rank with a slow
// disk read delays every rank that waits for it.
//
// All randomness used by the simulation flows through RNG, a SplitMix64
// generator, so experiments are reproducible bit-for-bit from a seed.
package vtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Clock is a per-rank virtual clock. The zero value reads zero time.
//
// A Clock is advanced by the rank goroutine that owns it, but may be read by
// other goroutines during synchronization, so the counter is atomic.
type Clock struct {
	ns atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Advance moves the clock forward by d. Negative d is ignored: modeled costs
// are never negative, and allowing a rewind would break the monotonicity
// invariant that synchronization relies on.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// AdvanceTo moves the clock forward to time t if t is later than the current
// time; otherwise it leaves the clock unchanged. It returns the resulting
// clock value. AdvanceTo is how barriers and collectives express "wait until
// the slowest participant arrives".
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	for {
		cur := c.ns.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if c.ns.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// MaxClock returns the latest time among the given clocks.
func MaxClock(clocks []*Clock) time.Duration {
	var max time.Duration
	for _, c := range clocks {
		if t := c.Now(); t > max {
			max = t
		}
	}
	return max
}

// RNG is a deterministic SplitMix64 pseudo-random generator. It is not safe
// for concurrent use; give each rank its own RNG (see Split).
type RNG struct {
	state uint64
	// cached second normal variate from Box-Muller
	haveNorm bool
	norm     float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent generator from r, keyed by id. Deriving the
// per-rank generators from a root seed keeps whole-experiment determinism
// while decorrelating the streams.
func (r *RNG) Split(id uint64) *RNG {
	// Mix the id through one SplitMix64 round of a copy of the state.
	z := r.Uint64() ^ (id+1)*0x9E3779B97F4A7C15
	return &RNG{state: z}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: Intn with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.haveNorm {
		r.haveNorm = false
		return r.norm
	}
	var u1, u2 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.norm = mag * math.Sin(2*math.Pi*u2)
	r.haveNorm = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Dist is a sampleable latency distribution.
type Dist interface {
	// Sample draws one latency using rng.
	Sample(rng *RNG) time.Duration
	// Mean returns the distribution mean, used by analytic summaries.
	Mean() time.Duration
}

// Fixed is a degenerate distribution that always returns D.
type Fixed struct{ D time.Duration }

// Sample implements Dist.
func (f Fixed) Sample(*RNG) time.Duration { return f.D }

// Mean implements Dist.
func (f Fixed) Mean() time.Duration { return f.D }

// LogNormal is a log-normal latency distribution parameterized by Mu and
// Sigma of the underlying normal. Latency tails on shared HPC resources
// (disks, networks under contention) are well approximated by log-normals,
// which is why the paper's CDFs have the characteristic long right tail.
type LogNormal struct {
	Mu    float64 // log of the median, in seconds
	Sigma float64 // shape: larger => heavier tail
}

// NewLogNormalMedianP99 builds a LogNormal with the given median and 99th
// percentile. It panics if p99 <= median or either is non-positive, because a
// log-normal cannot represent that.
func NewLogNormalMedianP99(median, p99 time.Duration) LogNormal {
	if median <= 0 || p99 <= median {
		panic(fmt.Sprintf("vtime: invalid log-normal spec median=%v p99=%v", median, p99))
	}
	mu := math.Log(median.Seconds())
	// For a log-normal, p99 = exp(mu + z99*sigma) with z99 ≈ 2.3263.
	const z99 = 2.3263478740408408
	sigma := (math.Log(p99.Seconds()) - mu) / z99
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *RNG) time.Duration {
	v := math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
	return time.Duration(v * float64(time.Second))
}

// Mean implements Dist.
func (l LogNormal) Mean() time.Duration {
	v := math.Exp(l.Mu + l.Sigma*l.Sigma/2)
	return time.Duration(v * float64(time.Second))
}

// Scaled wraps a distribution and multiplies every sample by Factor. It is
// used to apply contention multipliers to a base latency distribution.
type Scaled struct {
	Base   Dist
	Factor float64
}

// Sample implements Dist.
func (s Scaled) Sample(rng *RNG) time.Duration {
	return time.Duration(float64(s.Base.Sample(rng)) * s.Factor)
}

// Mean implements Dist.
func (s Scaled) Mean() time.Duration {
	return time.Duration(float64(s.Base.Mean()) * s.Factor)
}
