package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("Percentile of singleton = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDurationPercentile(t *testing.T) {
	ds := []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := DurationPercentile(ds, 50); got != 2*time.Millisecond {
		t.Fatalf("median = %v", got)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 8}); !almostEqual(got, math.Sqrt(8), 1e-12) {
		t.Fatalf("Geomean = %v", got)
	}
	if got := Geomean([]float64{4, 4, 4}); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Geomean constant = %v", got)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero input")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v", got)
	}
}

func TestParallelEfficiencyLinear(t *testing.T) {
	pts := []ScalingPoint{{48, 100}, {96, 200}, {192, 400}}
	for i, e := range ParallelEfficiency(pts) {
		if !almostEqual(e, 1, 1e-12) {
			t.Fatalf("efficiency[%d] = %v, want 1", i, e)
		}
	}
}

func TestParallelEfficiencySublinear(t *testing.T) {
	pts := []ScalingPoint{{1, 100}, {2, 150}}
	effs := ParallelEfficiency(pts)
	if !almostEqual(effs[1], 0.75, 1e-12) {
		t.Fatalf("efficiency = %v, want 0.75", effs[1])
	}
}

func TestParallelEfficiencyEmpty(t *testing.T) {
	if got := ParallelEfficiency(nil); got != nil {
		t.Fatalf("ParallelEfficiency(nil) = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	got := Speedup([]float64{100, 300, 615}, 100)
	want := []float64{1, 3, 6.15}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Speedup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpeedupZeroBaselinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Speedup([]float64{1}, 0)
}

func TestPercentileAgainstSortedRank(t *testing.T) {
	// Property: P0 == min, P100 == max, and P50 lies between them.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) {
				xs = append(xs, r)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		p0 := Percentile(xs, 0)
		p100 := Percentile(xs, 100)
		p50 := Percentile(xs, 50)
		return p0 == sorted[0] && p100 == sorted[len(sorted)-1] && p50 >= p0 && p50 <= p100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
