// Package stats provides the small statistical toolkit used by the
// experiment harness: percentiles, geometric means, and
// scaling-efficiency summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or an
// out-of-range p. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes the percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DurationPercentile is Percentile specialized for durations.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(Percentile(xs, p))
}

// Mean returns the arithmetic mean of xs; it panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of xs. All values must be positive.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Geomean of empty slice")
	}
	var logsum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean requires positive values, got %v", x))
		}
		logsum += math.Log(x)
	}
	return math.Exp(logsum / float64(len(xs)))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ScalingPoint is one measurement in a scaling study.
type ScalingPoint struct {
	Workers    int     // e.g. GPU count
	Throughput float64 // samples/sec (or any rate)
}

// ParallelEfficiency returns, for each point, throughput relative to linear
// scaling extrapolated from the first point:
//
//	eff_i = (T_i / T_0) / (W_i / W_0)
//
// A perfectly linear system yields 1.0 everywhere.
func ParallelEfficiency(points []ScalingPoint) []float64 {
	if len(points) == 0 {
		return nil
	}
	base := points[0]
	effs := make([]float64, len(points))
	for i, p := range points {
		ideal := base.Throughput * float64(p.Workers) / float64(base.Workers)
		effs[i] = p.Throughput / ideal
	}
	return effs
}

// Speedup divides each value by the baseline, returning normalized ratios.
// It panics if baseline is zero.
func Speedup(values []float64, baseline float64) []float64 {
	if baseline == 0 {
		panic("stats: Speedup with zero baseline")
	}
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / baseline
	}
	return out
}
