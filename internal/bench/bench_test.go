package bench

import (
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/hydra"
)

func quickOpts() Options { return Options{Quick: true, Seed: 11} }

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	r, err := e.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id || len(r.Rows) == 0 || len(r.Columns) == 0 {
		t.Fatalf("%s: malformed report %+v", id, r)
	}
	return r
}

func cell(t *testing.T, r *Report, row int, col string) string {
	t.Helper()
	for i, c := range r.Columns {
		if c == col {
			return r.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, r.Columns)
	return ""
}

func cellFloat(t *testing.T, r *Report, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, r, row, col), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %d/%s = %q not numeric: %v", row, col, cell(t, r, row, col), err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"abl-comm", "abl-lock", "abl-nb", "fig10", "fig11", "fig12", "fig13", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "table1", "table2", "table3"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Fatalf("experiment[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Fatalf("%s has no title", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found a nonexistent experiment")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	r.AddRow("hello", 1.23456)
	r.AddNote("n=%d", 5)
	s := r.String()
	if !strings.Contains(s, "hello") || !strings.Contains(s, "1.23") || !strings.Contains(s, "note: n=5") {
		t.Fatalf("render:\n%s", s)
	}
	out := r.CSV()
	if !strings.HasPrefix(out, "a,bb\n") || !strings.Contains(out, "hello,") {
		t.Fatalf("csv:\n%s", out)
	}

	// A column with a comma (fig7's "Total (s, all ranks)") and a cell with
	// a quote must come back as the same fields, not split or merged.
	r = &Report{ID: "x", Title: "T", Columns: []string{"method", "Total (s, all ranks)"}}
	r.AddRow(`say "hi"`, 12)
	r.AddRow("PFF", "3.4")
	recs, err := csv.NewReader(strings.NewReader(r.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("csv does not parse: %v\n%s", err, r.CSV())
	}
	if want := append([][]string{r.Columns}, r.Rows...); !reflect.DeepEqual(recs, want) {
		t.Fatalf("csv round trip = %q, want %q", recs, want)
	}
}

func TestTable1Shapes(t *testing.T) {
	r := runExp(t, "table1")
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// CFF < PFF per dataset; smooth largest PFF.
	for i := range r.Rows {
		pff := parseBytes(t, cell(t, r, i, "PFF"))
		cff := parseBytes(t, cell(t, r, i, "CFF"))
		if cff >= pff {
			t.Fatalf("row %d: CFF (%v) not smaller than PFF (%v)", i, cff, pff)
		}
	}
	// Compare exact-byte CFF sizes (PFF's 4 KiB block rounding can make
	// small per-sample differences invisible).
	smooth := parseBytes(t, cell(t, r, 3, "CFF"))
	discrete := parseBytes(t, cell(t, r, 2, "CFF"))
	if smooth <= discrete {
		t.Fatal("smooth dataset not the largest")
	}
}

func parseBytes(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(s)
	if len(fields) != 2 {
		t.Fatalf("bad byte string %q", s)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	switch fields[1] {
	case "TB":
		v *= 1 << 40
	case "GB":
		v *= 1 << 30
	case "MB":
		v *= 1 << 20
	case "B":
	default:
		t.Fatalf("bad unit in %q", s)
	}
	return v
}

func TestFig4DDStoreWins(t *testing.T) {
	r := runExp(t, "fig4")
	// 2 machines × (4 datasets + geomean).
	if len(r.Rows) != 10 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for i := range r.Rows {
		dd := cellFloat(t, r, i, "DDStore")
		if dd <= 1 {
			t.Fatalf("row %d (%s/%s): DDStore speedup %v <= 1",
				i, cell(t, r, i, "Machine"), cell(t, r, i, "Dataset"), dd)
		}
	}
}

func TestFig5LoadingReduction(t *testing.T) {
	r := runExp(t, "fig5")
	if len(r.Rows) != 12 { // 4 datasets × 3 methods
		t.Fatalf("%d rows", len(r.Rows))
	}
	// For each dataset, DDStore's CPU-Loading must be far below PFF's.
	for d := 0; d < 4; d++ {
		pffLoad := cellFloat(t, r, d*3+0, "CPU-Loading")
		ddsLoad := cellFloat(t, r, d*3+2, "CPU-Loading")
		if ddsLoad >= pffLoad/2 {
			t.Fatalf("dataset %s: DDStore loading %v not well below PFF %v",
				cell(t, r, d*3, "Dataset"), ddsLoad, pffLoad)
		}
	}
}

func TestFig6AndTable2Regimes(t *testing.T) {
	r := runExp(t, "table2")
	if len(r.Rows) != 12 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for d := 0; d < 4; d++ {
		pff50 := cellFloat(t, r, d*3+0, "50th")
		dds50 := cellFloat(t, r, d*3+2, "50th")
		dds99 := cellFloat(t, r, d*3+2, "99th")
		if dds50 >= pff50 {
			t.Fatalf("dataset %s: DDStore median %v >= PFF %v",
				cell(t, r, d*3, "Dataset"), dds50, pff50)
		}
		if dds99 > 5 { // paper: <= ~2.2 ms; generous bound
			t.Fatalf("DDStore 99th percentile %v ms too high", dds99)
		}
	}
	// fig6 must render the same runs as CDF fractions.
	r6 := runExp(t, "fig6")
	if len(r6.Rows) != 12 {
		t.Fatalf("fig6: %d rows", len(r6.Rows))
	}
	// CDF monotone along the row.
	for i := range r6.Rows {
		prev := 0.0
		for _, col := range []string{"P10 (ms)", "P50 (ms)", "P99 (ms)"} {
			v := cellFloat(t, r6, i, col)
			if v < prev {
				t.Fatalf("fig6 row %d: CDF not monotone", i)
			}
			prev = v
		}
	}
}

func TestFig7LoadingDominatedByRMA(t *testing.T) {
	r := runExp(t, "fig7")
	var loading, rma float64
	for i := range r.Rows {
		switch r.Rows[i][0] {
		case "CPU-Loading":
			loading = cellFloat(t, r, i, "Total (s, all ranks)")
		case "MPI-RMA (within loading)":
			rma = cellFloat(t, r, i, "Total (s, all ranks)")
		}
	}
	if loading <= 0 || rma <= 0 {
		t.Fatalf("missing regions: loading=%v rma=%v", loading, rma)
	}
	if rma > loading*1.01 {
		t.Fatalf("RMA time %v exceeds loading %v", rma, loading)
	}
	if rma < loading*0.5 {
		t.Fatalf("RMA (%v) should dominate DDStore loading (%v)", rma, loading)
	}
}

func TestFig8ScalingShape(t *testing.T) {
	r := runExp(t, "fig8")
	// DDStore throughput must grow with GPUs and keep decent efficiency.
	type key struct{ machine, dataset, method string }
	last := map[key]float64{}
	for i := range r.Rows {
		k := key{cell(t, r, i, "Machine"), cell(t, r, i, "Dataset"), cell(t, r, i, "Method")}
		tp := cellFloat(t, r, i, "Samples/s")
		if prev, ok := last[k]; ok && k.method == "DDStore" && tp <= prev {
			t.Fatalf("%v: DDStore throughput fell from %v to %v with more GPUs", k, prev, tp)
		}
		last[k] = tp
		mn := cellFloat(t, r, i, "Min")
		mx := cellFloat(t, r, i, "Max")
		if mn > tp || mx < tp {
			t.Fatalf("row %d: min/mean/max inconsistent: %v/%v/%v", i, mn, tp, mx)
		}
		if k.method == "DDStore" {
			// Quick scale uses tiny batches, so fixed per-step latencies
			// weigh heavily; the full-scale run (batch 128) is near-linear.
			if eff := cellFloat(t, r, i, "ParallelEff"); eff < 0.35 {
				t.Fatalf("%v: DDStore efficiency %v too low", k, eff)
			}
		}
	}
}

func TestFig9RowsPerScale(t *testing.T) {
	r := runExp(t, "fig9")
	if len(r.Rows) != 3 { // quick profile has 3 Summit scales
		t.Fatalf("%d rows", len(r.Rows))
	}
	for i := range r.Rows {
		if cellFloat(t, r, i, "CPU-Loading") <= 0 {
			t.Fatalf("row %d: no loading time", i)
		}
	}
}

func TestFig10FixedGlobalBatch(t *testing.T) {
	r := runExp(t, "fig10")
	for i := range r.Rows {
		gpus := cellFloat(t, r, i, "GPUs")
		local := cellFloat(t, r, i, "LocalBatch")
		machine := cell(t, r, i, "Machine")
		want := 192.0
		if machine == "Perlmutter" {
			want = 128
		}
		if gpus*local != want {
			t.Fatalf("row %d: %v GPUs × %v local != global %v", i, gpus, local, want)
		}
	}
}

func TestFig11WidthWithinBand(t *testing.T) {
	r := runExp(t, "fig11")
	// Per machine, the spread across widths should be modest (paper: <10%;
	// allow 35% at quick scale).
	byMachine := map[string][]float64{}
	for i := range r.Rows {
		byMachine[cell(t, r, i, "Machine")] = append(byMachine[cell(t, r, i, "Machine")],
			cellFloat(t, r, i, "Samples/s"))
	}
	for m, tps := range byMachine {
		lo, hi := tps[0], tps[0]
		for _, v := range tps {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if (hi-lo)/hi > 0.35 {
			t.Fatalf("%s: width sweep varies %.0f%%, want modest", m, 100*(hi-lo)/hi)
		}
	}
}

func TestFig12AndTable3WidthLatency(t *testing.T) {
	r := runExp(t, "table3")
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for i := range r.Rows {
		wide := cellFloat(t, r, i, "width=8 (ms)")
		narrow := cellFloat(t, r, i, "width=2 (ms)")
		if narrow >= wide {
			t.Fatalf("row %d: width=2 median %v not below default %v", i, narrow, wide)
		}
	}
	r12 := runExp(t, "fig12")
	if len(r12.Rows) != 8 {
		t.Fatalf("fig12: %d rows", len(r12.Rows))
	}
}

func TestFig13Converges(t *testing.T) {
	r := runExp(t, "fig13")
	first := cellFloat(t, r, 0, "TrainLoss")
	last := cellFloat(t, r, len(r.Rows)-1, "TrainLoss")
	if !(last < first) {
		t.Fatalf("training did not improve: %v -> %v", first, last)
	}
	for i := range r.Rows {
		if cellFloat(t, r, i, "ValLoss") <= 0 || cellFloat(t, r, i, "TestLoss") <= 0 {
			t.Fatalf("row %d: missing eval loss", i)
		}
	}
}

func TestRunCacheHits(t *testing.T) {
	p := profileFor(quickOpts())
	spec := RunSpec{
		Machine: cluster.Laptop(), Ranks: 2, Method: MethodDDStore,
		Dataset: p.dataset(dsHomoLumo, nil), LocalBatch: 4, Epochs: 1, MaxSteps: 1, Seed: 1,
	}
	a, err := runCached(quickOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b, err := runCached(quickOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss for identical spec")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("cached run too slow — cache not working")
	}
}

// TestRunCacheKeysTheModelAndShuffle: a spec that differs only in
// LocalShuffle or in its real model's architecture is its own run, not a
// memo hit.
func TestRunCacheKeysTheModelAndShuffle(t *testing.T) {
	p := profileFor(quickOpts())
	base := RunSpec{
		Machine: cluster.Laptop(), Ranks: 2, Method: MethodDDStore,
		Dataset: p.dataset(dsHomoLumo, nil), LocalBatch: 4, Epochs: 1, MaxSteps: 1, Seed: 1,
	}
	shuffled, real, wider := base, base, base
	shuffled.LocalShuffle = true
	real.Model = &hydra.Config{HiddenDim: 8, ConvLayers: 1, FCLayers: 1}
	wider.Model = &hydra.Config{HiddenDim: 16, ConvLayers: 1, FCLayers: 1}
	seen := map[*RunOut]string{}
	for _, tc := range []struct {
		name string
		spec RunSpec
	}{{"base", base}, {"local shuffle", shuffled}, {"real model", real}, {"wider model", wider}} {
		out, err := runCached(quickOpts(), tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[out]; ok {
			t.Errorf("%s returned the memoized run of %s", tc.name, prev)
		}
		seen[out] = tc.name
	}
}

// TestAblationsShape: in abl-lock and abl-nb the paper's design is the
// better row. abl-comm is not asserted here: its rows are what the model
// says (EXPERIMENTS.md), pinned byte for byte by quick.golden.
func TestAblationsShape(t *testing.T) {
	for _, id := range []string{"abl-lock", "abl-nb"} {
		r := runExp(t, id)
		if len(r.Rows) != 2 {
			t.Fatalf("%s: %d rows", id, len(r.Rows))
		}
		base := cellFloat(t, r, 0, "Samples/s")
		alt := cellFloat(t, r, 1, "Samples/s")
		if base <= 0 || alt <= 0 {
			t.Fatalf("%s: non-positive throughput", id)
		}
		// Row 1 is always the better design in these ablations.
		if alt < base {
			t.Fatalf("%s: expected row 2 (%v) >= row 1 (%v)", id, alt, base)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2 << 20:       "2.00 MB",
		3 << 30:       "3.00 GB",
		(3 << 40) / 2: "1.50 TB",
		1<<20 + 1<<19: "1.50 MB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestProfileScalesAreSane(t *testing.T) {
	for _, quick := range []bool{true, false} {
		p := profileFor(Options{Quick: quick})
		if p.perlRanks%4 != 0 || p.summitRanks%6 != 0 {
			t.Fatalf("quick=%v: rank counts not node-aligned: %d/%d", quick, p.summitRanks, p.perlRanks)
		}
		// Every width must divide its rank count (core.Open requires it).
		for _, w := range p.widthsSummit {
			if p.widthRanksSummit%w != 0 {
				t.Fatalf("quick=%v: summit width %d does not divide %d", quick, w, p.widthRanksSummit)
			}
		}
		for _, w := range p.widthsPerl {
			if p.widthRanksPerl%w != 0 {
				t.Fatalf("quick=%v: perl width %d does not divide %d", quick, w, p.widthRanksPerl)
			}
		}
		// Each scaling point must be able to fill one global batch from the
		// 80% train split.
		for _, ranks := range p.summitScales {
			if p.molN*8/10 < ranks*p.localBatch {
				t.Fatalf("quick=%v: %d ranks x %d batch cannot be fed by %d samples",
					quick, ranks, p.localBatch, p.molN)
			}
		}
		// The fixed global batches must be divisible by every scale.
		for _, ranks := range p.summitScales {
			if p.globalSummit%ranks != 0 && p.globalSummit/ranks >= 1 {
				t.Fatalf("quick=%v: global batch %d not divisible by %d ranks", quick, p.globalSummit, ranks)
			}
		}
		// The dataset/page-cache relationship that drives the Ising effect:
		// the Perlmutter Ising bytes must fit a per-rank cache slice; the
		// molecular datasets must overflow it.
		perRank := p.pageCachePerl / 4
		ising := p.dataset(dsIsing, nil)
		sizes, err := sizesFor(ising)
		if err != nil {
			t.Fatal(err)
		}
		var isingBytes int64
		for _, s := range sizes {
			isingBytes += s
		}
		if isingBytes > perRank {
			t.Fatalf("quick=%v: Ising (%d B) does not fit the cache slice (%d B) — the Table 2 effect would vanish",
				quick, isingBytes, perRank)
		}
	}
}
