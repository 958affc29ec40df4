package vtime

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock reads %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if got := c.Now(); got != 8*time.Millisecond {
		t.Fatalf("Now = %v, want 8ms", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("negative advance changed clock: %v", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	if got := c.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("AdvanceTo backwards returned %v, want 10ms", got)
	}
	if got := c.AdvanceTo(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("AdvanceTo forward returned %v, want 20ms", got)
	}
	if got := c.Now(); got != 20*time.Millisecond {
		t.Fatalf("Now = %v after AdvanceTo, want 20ms", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*per*time.Microsecond {
		t.Fatalf("concurrent advance lost updates: %v", got)
	}
}

func TestMaxClockEmpty(t *testing.T) {
	if got := MaxClock(nil); got != 0 {
		t.Fatalf("MaxClock(nil) = %v, want 0", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	r1 := root.Split(1)
	root2 := NewRNG(7)
	r1b := root2.Split(1)
	for i := 0; i < 50; i++ {
		if r1.Uint64() != r1b.Uint64() {
			t.Fatalf("Split not deterministic at step %d", i)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("Intn badly skewed: value %d occurred %d/10000 times", v, n)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

// perm shuffles [0, n) with r.
func perm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := 1 + int(seed%100)
		p := perm(rr, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	// All 6 permutations of 3 elements should appear with roughly equal
	// frequency — a Fisher-Yates sanity check.
	r := NewRNG(6)
	counts := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		p := perm(r, 3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations of 3, want 6", len(counts))
	}
	for p, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("permutation %v occurred %d/6000 times", p, n)
		}
	}
}

func TestFixedDist(t *testing.T) {
	d := Fixed{D: 3 * time.Millisecond}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := d.Sample(r); got != 3*time.Millisecond {
			t.Fatalf("Fixed sample = %v", got)
		}
	}
	if d.Mean() != 3*time.Millisecond {
		t.Fatalf("Fixed mean = %v", d.Mean())
	}
}

func TestLogNormalMedianP99(t *testing.T) {
	median, p99 := 2*time.Millisecond, 12*time.Millisecond
	d := NewLogNormalMedianP99(median, p99)
	if got := math.Exp(d.Mu); math.Abs(got-median.Seconds()) > 1e-9 {
		t.Fatalf("median = %v, want %v", got, median)
	}
	// Empirically verify the 99th percentile.
	r := NewRNG(9)
	const n = 100000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(r).Seconds()
	}
	// Count fraction below p99.
	below := 0
	for _, s := range samples {
		if s <= p99.Seconds() {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.985 || frac > 0.995 {
		t.Fatalf("fraction below p99 = %v, want ~0.99", frac)
	}
}

func TestLogNormalInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p99 < median")
		}
	}()
	NewLogNormalMedianP99(10*time.Millisecond, 5*time.Millisecond)
}

func TestLogNormalMean(t *testing.T) {
	d := NewLogNormalMedianP99(time.Millisecond, 5*time.Millisecond)
	r := NewRNG(11)
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r).Seconds()
	}
	emp := sum / n
	ana := d.Mean().Seconds()
	if math.Abs(emp-ana)/ana > 0.05 {
		t.Fatalf("empirical mean %v vs analytic %v", emp, ana)
	}
}

func TestScaledDist(t *testing.T) {
	base := Fixed{D: 4 * time.Millisecond}
	s := Scaled{Base: base, Factor: 2.5}
	r := NewRNG(1)
	if got := s.Sample(r); got != 10*time.Millisecond {
		t.Fatalf("Scaled sample = %v, want 10ms", got)
	}
	if got := s.Mean(); got != 10*time.Millisecond {
		t.Fatalf("Scaled mean = %v, want 10ms", got)
	}
}

func TestLogNormalSamplesPositive(t *testing.T) {
	d := NewLogNormalMedianP99(100*time.Microsecond, time.Millisecond)
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		if s := d.Sample(r); s <= 0 {
			t.Fatalf("non-positive sample %v", s)
		}
	}
}
