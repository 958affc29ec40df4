package bench

import (
	"fmt"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/datasets"
	"ddstore/internal/hydra"
	"ddstore/internal/stats"
	"ddstore/internal/trace"
)

// profile holds the experiment scale parameters. Full mode reproduces the
// paper's configurations (rank counts equal to the paper's GPU counts, the
// paper's batch sizes and width sweeps); Quick mode shrinks everything so
// the whole suite runs in seconds for tests.
type profile struct {
	summitRanks int // 64 Summit nodes × 6 GPUs for fig4/5/6/7 = 384
	perlRanks   int // 16 Perlmutter nodes × 4 GPUs = 64

	// Dataset sizes preserve the paper's 1.2M:10.5M Ising:molecule ratio at
	// 1/100 scale. Summit's 384-rank runs need a larger Ising set to fill a
	// global batch.
	isingPerlN   int
	isingSummitN int
	molN         int
	bins         int // smooth-spectrum grid

	// pageCacheSummit/Perl scale the modeled per-node OS page cache to the
	// scaled dataset sizes, preserving the paper's which-dataset-fits
	// relationship: Ising (small, containerized) is served from cache after
	// the first epoch; the molecular datasets are not.
	pageCacheSummit int64
	pageCachePerl   int64

	summitScales []int // GPU counts, fig8–10
	perlScales   []int

	widthRanksSummit int
	widthsSummit     []int
	widthRanksPerl   int
	widthsPerl       []int
	// widthMolN / widthIsingN size the width experiments' datasets: small
	// widths hold replicas = ranks/width full copies in memory, so these
	// runs use the smallest dataset that still feeds one global batch —
	// faithful to the memory/width trade-off without needing a 64-node
	// machine's aggregate RAM in one process.
	widthMolN   int
	widthIsingN int

	localBatch int
	epochs     int
	maxSteps   int

	globalSummit int // fixed global batch, fig10
	globalPerl   int

	// convergence (fig13)
	convSamples int
	convBins    int
	convRanks   int
	convBatch   int
	convEpochs  int
	convHidden  int
	convConv    int
	convFC      int
}

func profileFor(o Options) profile {
	if o.Quick {
		return profile{
			summitRanks: 12, perlRanks: 8,
			isingPerlN: 1200, isingSummitN: 2000, molN: 2400, bins: 192,
			pageCacheSummit: 96 << 20, pageCachePerl: 64 << 20,
			summitScales:     []int{6, 12, 24},
			perlScales:       []int{4, 8, 16},
			widthRanksSummit: 12, widthsSummit: []int{3, 6, 12},
			widthRanksPerl: 8, widthsPerl: []int{2, 4, 8},
			widthMolN: 2400, widthIsingN: 1200,
			localBatch: 16, epochs: 2, maxSteps: 2,
			globalSummit: 192, globalPerl: 128,
			convSamples: 240, convBins: 16, convRanks: 2, convBatch: 8,
			convEpochs: 6, convHidden: 8, convConv: 1, convFC: 1,
		}
	}
	return profile{
		summitRanks: 384, perlRanks: 64,
		isingPerlN: 12000, isingSummitN: 64000, molN: 250000, bins: 375,
		pageCacheSummit: 1 << 30, pageCachePerl: 600 << 20,
		summitScales:     []int{48, 96, 192, 384, 768, 1536},
		perlScales:       []int{32, 64, 128, 256, 512, 1024},
		widthRanksSummit: 384, widthsSummit: []int{12, 24, 48, 96, 192, 384},
		widthRanksPerl: 256, widthsPerl: []int{8, 16, 32, 64, 128, 256},
		widthMolN: 62000, widthIsingN: 12000,
		localBatch: 128, epochs: 3, maxSteps: 2,
		globalSummit: 6144, globalPerl: 4096,
		convSamples: 600, convBins: 32, convRanks: 4, convBatch: 8,
		convEpochs: 40, convHidden: 16, convConv: 2, convFC: 2,
	}
}

// dataset returns one of the four evaluation datasets at the profile's
// scale. machine selects the Ising variant: Summit's 384-rank global batch
// needs more samples than the 1/100-scale count used everywhere else.
func (p profile) dataset(kind dsKind, machine *cluster.Machine) *datasets.Dataset {
	switch kind {
	case dsIsing:
		if machine != nil && machine.Name == "Summit" {
			return datasetFor(dsIsing, p.isingSummitN, 0)
		}
		return datasetFor(dsIsing, p.isingPerlN, 0)
	case dsHomoLumo:
		return datasetFor(dsHomoLumo, p.molN, 0)
	case dsDiscrete:
		return datasetFor(dsDiscrete, p.molN, 0)
	case dsSmooth:
		return datasetFor(dsSmooth, p.molN, p.bins)
	}
	panic("unknown dataset kind")
}

// machine returns the named machine model with the page cache scaled to the
// profile's dataset sizes.
func (p profile) machine(name string) *cluster.Machine {
	m, err := cluster.ByName(name)
	if err != nil {
		panic(err)
	}
	cache := p.pageCachePerl
	if name == "Summit" {
		cache = p.pageCacheSummit
	}
	if cache > 0 {
		m.PageCacheBytes = cache
	}
	return m
}

func init() {
	register("table1", "Dataset description (graphs/nodes/edges/bytes, PFF vs CFF)", runTable1)
	register("fig4", "Normalized end-to-end training speedup (Summit 384 GPUs, Perlmutter 64 GPUs)", runFig4)
	register("fig5", "End-to-end training time breakdown, 64 GPUs on Perlmutter", runFig5)
	register("fig6", "Graph loading latency CDF, 64 GPUs on Perlmutter", runFig6)
	register("table2", "50/95/99th percentile graph loading latency", runTable2)
	register("fig7", "Score-P-style profile: data loading and MPI RMA shares", runFig7)
	register("fig8", "Scaling with fixed local batch size 128", runFig8)
	register("fig9", "Per-function durations with DDStore vs scale", runFig9)
	register("fig10", "Scaling with fixed global batch size", runFig10)
	register("fig11", "End-to-end performance vs width parameter", runFig11)
	register("fig12", "Latency CDF: width=default vs width=2, 16 Perlmutter nodes", runFig12)
	register("table3", "50th percentile latency: width=default vs width=2", runTable3)
	register("fig13", "Convergence of training/validation/test loss", runFig13)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.2f TB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// runTable1 reproduces Table 1: the dataset inventory with per-format
// storage sizes. PFF pays per-file block rounding (each sample file
// occupies whole 4 KiB filesystem blocks); CFF packs samples back to back
// plus a 20-byte index entry per sample.
func runTable1(o Options) (*Report, error) {
	p := profileFor(o)
	r := &Report{
		ID:      "table1",
		Title:   "Dataset description",
		Columns: []string{"Dataset", "#Graphs", "#Nodes", "#Edges", "#Feature", "PFF", "CFF"},
	}
	const fsBlock = 4096
	for _, kind := range allKinds {
		ds := p.dataset(kind, nil)
		st, err := datasets.ComputeStats(ds, 2000)
		if err != nil {
			return nil, err
		}
		sizes, err := sizesFor(ds)
		if err != nil {
			return nil, err
		}
		var pffBytes, cffBytes int64
		for _, s := range sizes {
			pffBytes += (s + fsBlock - 1) / fsBlock * fsBlock
			cffBytes += s + 20
		}
		cffBytes += int64(cffParts) * 24
		r.AddRow(kind.String(), st.NumGraphs, st.TotalNodes, st.TotalEdges,
			ds.OutputDim(), humanBytes(pffBytes), humanBytes(cffBytes))
	}
	r.AddNote("datasets are synthetic equivalents scaled to ~1/100 of the paper's counts; the paper's Table 1: Ising 1.2M graphs 24/19 GB, AISD HOMO-LUMO 10.5M 90/60 GB, AISD-Ex discrete 83/64 GB, smooth 1.6/1.5 TB")
	r.AddNote("shape to preserve: CFF < PFF for every dataset; smooth >> all others")
	return r, nil
}

// fig4Machines returns the two paper configurations: Summit with 384 GPUs
// and Perlmutter with 64 GPUs.
func fig4Machines(p profile) []struct {
	machine *cluster.Machine
	ranks   int
} {
	return []struct {
		machine *cluster.Machine
		ranks   int
	}{
		{p.machine("Summit"), p.summitRanks},
		{p.machine("Perlmutter"), p.perlRanks},
	}
}

// runFig4 reproduces Fig. 4: end-to-end training throughput of CFF and
// DDStore normalized to PFF, per dataset, plus the geometric mean.
func runFig4(o Options) (*Report, error) {
	p := profileFor(o)
	r := &Report{
		ID:      "fig4",
		Title:   "Normalized end-to-end training speedup vs PFF",
		Columns: []string{"Machine", "GPUs", "Dataset", "PFF", "CFF", "DDStore"},
	}
	for _, mc := range fig4Machines(p) {
		var cffSpeed, ddsSpeed []float64
		for _, kind := range allKinds {
			ds := p.dataset(kind, mc.machine)
			tp := map[Method]float64{}
			for _, m := range AllMethods {
				out, err := runCached(o, RunSpec{
					Machine: mc.machine, Ranks: mc.ranks, Method: m, Dataset: ds,
					LocalBatch: p.localBatch, Epochs: p.epochs, MaxSteps: p.maxSteps,
					Seed: o.seed(), KeepLatencies: true,
				})
				if err != nil {
					return nil, err
				}
				tp[m] = out.meanThroughput()
			}
			cs := tp[MethodCFF] / tp[MethodPFF]
			dd := tp[MethodDDStore] / tp[MethodPFF]
			cffSpeed = append(cffSpeed, cs)
			ddsSpeed = append(ddsSpeed, dd)
			r.AddRow(mc.machine.Name, mc.ranks, kind.String(), 1.0, cs, dd)
		}
		r.AddRow(mc.machine.Name, mc.ranks, "Geomean", 1.0,
			stats.Geomean(cffSpeed), stats.Geomean(ddsSpeed))
	}
	r.AddNote("paper: DDStore vs PFF averages 2.93x on Summit (up to 4.23x) and 4.69x on Perlmutter (up to 6.15x); DDStore vs CFF 5.09x / 6.13x")
	r.AddNote("shape to preserve: DDStore > 1 everywhere and largest; CFF at or below PFF for the molecular datasets")
	return r, nil
}

// fig5Runs executes (or reuses) the 4-dataset × 3-method suite on the
// Perlmutter 64-GPU configuration with latency retention — shared by
// fig5, fig6 and table2.
func fig5Runs(o Options) (profile, map[dsKind]map[Method]*RunOut, error) {
	p := profileFor(o)
	outs := map[dsKind]map[Method]*RunOut{}
	perl := p.machine("Perlmutter")
	for _, kind := range allKinds {
		outs[kind] = map[Method]*RunOut{}
		for _, m := range AllMethods {
			out, err := runCached(o, RunSpec{
				Machine: perl, Ranks: p.perlRanks, Method: m,
				Dataset: p.dataset(kind, perl), LocalBatch: p.localBatch, Epochs: p.epochs,
				MaxSteps: p.maxSteps, Seed: o.seed(), KeepLatencies: true,
			})
			if err != nil {
				return p, nil, err
			}
			outs[kind][m] = out
		}
	}
	return p, outs, nil
}

// runFig5 reproduces Fig. 5: per-phase time breakdown (seconds per rank per
// epoch) for each dataset and method on 64 Perlmutter GPUs.
func runFig5(o Options) (*Report, error) {
	p, outs, err := fig5Runs(o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "fig5",
		Title: "End-to-end time breakdown on Perlmutter (s per rank per epoch)",
		Columns: []string{"Dataset", "Method", "CPU-Loading", "CPU-Batching",
			"GPU-Forward", "GPU-Backward", "GPU-Comm", "Optimizer"},
	}
	for _, kind := range allKinds {
		for _, m := range AllMethods {
			out := outs[kind][m]
			per := func(region string) float64 {
				return out.Prof.Get(region).Total.Seconds() / float64(p.perlRanks) / float64(p.epochs)
			}
			r.AddRow(kind.String(), string(m),
				per(trace.RegionLoading), per(trace.RegionBatching),
				per(trace.RegionForward), per(trace.RegionBackward),
				per(trace.RegionComm), per(trace.RegionOptimizer))
		}
	}
	// Paper claim: DDStore cuts CPU-Loading by ~90.7% vs PFF and ~84.3% vs CFF.
	var reducPFF, reducCFF []float64
	for _, kind := range allKinds {
		dd := outs[kind][MethodDDStore].Prof.Get(trace.RegionLoading).Total.Seconds()
		pf := outs[kind][MethodPFF].Prof.Get(trace.RegionLoading).Total.Seconds()
		cf := outs[kind][MethodCFF].Prof.Get(trace.RegionLoading).Total.Seconds()
		if pf > 0 {
			reducPFF = append(reducPFF, 100*(1-dd/pf))
		}
		if cf > 0 {
			reducCFF = append(reducCFF, 100*(1-dd/cf))
		}
	}
	r.AddNote("measured mean CPU-Loading reduction by DDStore: %.1f%% vs PFF, %.1f%% vs CFF (paper: 90.68%% and 84.31%%)",
		stats.Mean(reducPFF), stats.Mean(reducCFF))
	return r, nil
}

// runFig6 reproduces Fig. 6: the per-graph loading latency CDF per dataset
// and method; we print the latency at fixed CDF fractions.
func runFig6(o Options) (*Report, error) {
	_, outs, err := fig5Runs(o)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	cols := []string{"Dataset", "Method"}
	for _, f := range fractions {
		cols = append(cols, fmt.Sprintf("P%02.0f (ms)", f*100))
	}
	r := &Report{ID: "fig6", Title: "Graph loading latency CDF on 64 Perlmutter GPUs", Columns: cols}
	for _, kind := range allKinds {
		for _, m := range AllMethods {
			lat := outs[kind][m].latencies()
			if len(lat) == 0 {
				return nil, fmt.Errorf("bench: no latencies for %s/%s", kind, m)
			}
			row := []any{kind.String(), string(m)}
			for _, f := range fractions {
				row = append(row, ms(stats.DurationPercentile(lat, f*100)))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("shape to preserve: DDStore's curve is leftmost (sub-ms) for every dataset; CFF's Ising median is cache-fast but its molecular-dataset curves sit right of PFF")
	return r, nil
}

// runTable2 reproduces Table 2: 50/95/99th percentile of the Fig. 6
// latencies.
func runTable2(o Options) (*Report, error) {
	_, outs, err := fig5Runs(o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "table2",
		Title:   "Graph loading latency percentiles (ms)",
		Columns: []string{"Dataset", "Method", "50th", "95th", "99th"},
	}
	for _, kind := range allKinds {
		for _, m := range AllMethods {
			p50, p95, p99 := latencyPercentiles(outs[kind][m].latencies())
			r.AddRow(kind.String(), string(m), p50, p95, p99)
		}
	}
	r.AddNote("paper (Perlmutter, 64 GPUs): PFF medians 2.25–2.78 ms; CFF 0.19 ms (Ising, cached) to 9.69 ms; DDStore 0.24–0.44 ms with 99th <= 2.17 ms")
	return r, nil
}

// runFig7 reproduces Fig. 7: the Score-P profile share of data loading and
// MPI RMA time for DDStore training on Summit.
func runFig7(o Options) (*Report, error) {
	p := profileFor(o)
	out, err := runCached(o, RunSpec{
		Machine: p.machine("Summit"), Ranks: p.summitRanks, Method: MethodDDStore,
		Dataset: p.dataset(dsDiscrete, nil), LocalBatch: p.localBatch, Epochs: p.epochs,
		MaxSteps: p.maxSteps, Seed: o.seed(), KeepLatencies: true,
	})
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "fig7",
		Title:   "Profile of HydraGNN+DDStore on Summit (AISD-Ex discrete)",
		Columns: []string{"Region", "Total (s, all ranks)", "Share"},
	}
	total := out.Prof.Total()
	for _, region := range []string{
		trace.RegionLoading, trace.RegionBatching, trace.RegionForward,
		trace.RegionBackward, trace.RegionComm, trace.RegionOptimizer,
	} {
		reg := out.Prof.Get(region)
		r.AddRow(region, reg.Total.Seconds(), fmt.Sprintf("%.1f%%", 100*float64(reg.Total)/float64(total)))
	}
	rma := out.Prof.Get(trace.RegionRMA)
	r.AddRow(trace.RegionRMA+" (within loading)", rma.Total.Seconds(),
		fmt.Sprintf("%.1f%%", 100*float64(rma.Total)/float64(total)))
	r.AddNote("paper: data loading ~67%% of the training duration, MPI RMA ~35%% of overall time")
	r.AddNote("shape to preserve: loading is the dominant CPU region and consists almost entirely of one-sided RMA time")
	return r, nil
}

// scalingRow is one point of a scaling study.
func machineScales(p profile, m *cluster.Machine) []int {
	if m.Name == "Summit" {
		return p.summitScales
	}
	return p.perlScales
}

// runFig8 reproduces Fig. 8: throughput vs GPU count at fixed local batch
// size, for PFF/CFF/DDStore on both machines and the two AISD-Ex datasets.
// The min/max columns expose run variability (the paper's grey band).
func runFig8(o Options) (*Report, error) {
	p := profileFor(o)
	r := &Report{
		ID:    "fig8",
		Title: "Scaling with fixed local batch size",
		Columns: []string{"Machine", "Dataset", "GPUs", "Method",
			"Samples/s", "Min", "Max", "ParallelEff"},
	}
	for _, machine := range []*cluster.Machine{p.machine("Summit"), p.machine("Perlmutter")} {
		for _, kind := range []dsKind{dsDiscrete, dsSmooth} {
			ds := p.dataset(kind, nil)
			for _, m := range AllMethods {
				var pts []stats.ScalingPoint
				var rows [][]any
				for _, ranks := range machineScales(p, machine) {
					out, err := runCached(o, RunSpec{
						Machine: machine, Ranks: ranks, Method: m, Dataset: ds,
						LocalBatch: p.localBatch, Epochs: p.epochs, MaxSteps: 1,
						Seed: o.seed(),
					})
					if err != nil {
						return nil, err
					}
					tps := out.epochThroughputs()
					epochMean := stats.Mean(tps)
					pts = append(pts, stats.ScalingPoint{Workers: ranks, Throughput: epochMean})
					rows = append(rows, []any{
						machine.Name, kind.String(), ranks, string(m),
						epochMean, stats.Min(tps), stats.Max(tps),
					})
				}
				effs := stats.ParallelEfficiency(pts)
				for i, row := range rows {
					r.AddRow(append(row, effs[i])...)
				}
			}
		}
	}
	r.AddNote("paper: DDStore scales near-linearly to 1536 GPUs (Summit) / 1024 GPUs (Perlmutter) with low variability; PFF and CFF flatten and fluctuate")
	return r, nil
}

// runFig9 reproduces Fig. 9: per-function durations of DDStore training at
// each scale (same settings as fig8, Summit, AISD-Ex discrete).
func runFig9(o Options) (*Report, error) {
	p := profileFor(o)
	ds := p.dataset(dsDiscrete, nil)
	r := &Report{
		ID:    "fig9",
		Title: "DDStore per-function durations vs scale (Summit, s per rank per epoch)",
		Columns: []string{"GPUs", "CPU-Loading", "CPU-Batching", "GPU-Forward",
			"GPU-Backward", "GPU-Comm", "Optimizer"},
	}
	summit := p.machine("Summit")
	for _, ranks := range machineScales(p, summit) {
		out, err := runCached(o, RunSpec{
			Machine: summit, Ranks: ranks, Method: MethodDDStore, Dataset: ds,
			LocalBatch: p.localBatch, Epochs: p.epochs, MaxSteps: 1, Seed: o.seed(),
		})
		if err != nil {
			return nil, err
		}
		per := func(region string) float64 {
			return out.Prof.Get(region).Total.Seconds() / float64(ranks) / float64(p.epochs)
		}
		r.AddRow(ranks, per(trace.RegionLoading), per(trace.RegionBatching),
			per(trace.RegionForward), per(trace.RegionBackward),
			per(trace.RegionComm), per(trace.RegionOptimizer))
	}
	r.AddNote("shape to preserve: per-rank function durations stay roughly flat as GPUs double (near-linear weak scaling); GPU-Comm grows slowly with scale")
	return r, nil
}

// runFig10 reproduces Fig. 10: scaling under a fixed *global* batch size
// (6144 on Summit, 4096 on Perlmutter) — local batches shrink as GPUs grow.
func runFig10(o Options) (*Report, error) {
	p := profileFor(o)
	r := &Report{
		ID:      "fig10",
		Title:   "Scaling with fixed global batch size (AISD-Ex discrete)",
		Columns: []string{"Machine", "GPUs", "LocalBatch", "Method", "Samples/s"},
	}
	ds := p.dataset(dsDiscrete, nil)
	for _, mc := range []struct {
		machine *cluster.Machine
		global  int
	}{
		{p.machine("Summit"), p.globalSummit},
		{p.machine("Perlmutter"), p.globalPerl},
	} {
		for _, ranks := range machineScales(p, mc.machine) {
			local := mc.global / ranks
			if local < 1 {
				continue
			}
			for _, m := range AllMethods {
				out, err := runCached(o, RunSpec{
					Machine: mc.machine, Ranks: ranks, Method: m, Dataset: ds,
					LocalBatch: local, Epochs: p.epochs, MaxSteps: 2, Seed: o.seed(),
				})
				if err != nil {
					return nil, err
				}
				r.AddRow(mc.machine.Name, ranks, local, string(m), out.meanThroughput())
			}
		}
	}
	r.AddNote("paper: with a fixed global batch, small local batches underutilize GPUs at scale and the DDStore-vs-PFF/CFF gap narrows on Perlmutter")
	return r, nil
}

// runFig11 reproduces Fig. 11: end-to-end performance with varying width on
// 64 nodes of each machine.
func runFig11(o Options) (*Report, error) {
	p := profileFor(o)
	r := &Report{
		ID:      "fig11",
		Title:   "End-to-end performance vs DDStore width (AISD-Ex discrete)",
		Columns: []string{"Machine", "GPUs", "Width", "Replicas", "Samples/s", "vs widest"},
	}
	for _, mc := range []struct {
		machine *cluster.Machine
		ranks   int
		widths  []int
	}{
		{p.machine("Summit"), p.widthRanksSummit, p.widthsSummit},
		{p.machine("Perlmutter"), p.widthRanksPerl, p.widthsPerl},
	} {
		results := make(map[int]float64, len(mc.widths))
		for _, w := range mc.widths {
			out, err := runCached(o, RunSpec{
				Machine: mc.machine, Ranks: mc.ranks, Method: MethodDDStore,
				Dataset: datasetFor(dsDiscrete, p.widthMolN, 0), Width: w,
				LocalBatch: p.localBatch, Epochs: p.epochs, MaxSteps: p.maxSteps,
				Seed: o.seed(),
			})
			if err != nil {
				return nil, err
			}
			results[w] = out.meanThroughput()
		}
		widest := results[mc.widths[len(mc.widths)-1]]
		for _, w := range mc.widths {
			r.AddRow(mc.machine.Name, mc.ranks, w, mc.ranks/w, results[w],
				fmt.Sprintf("%.2fx", results[w]/widest))
		}
	}
	r.AddNote("paper: the width changes end-to-end performance by less than ~10%% — loading is overlapped with compute, so faster fetches mostly shrink an already-hidden phase")
	return r, nil
}

// fig12Runs executes the width=default vs width=2 latency comparison on 16
// Perlmutter nodes (64 ranks), shared by fig12 and table3.
func fig12Runs(o Options) (profile, map[dsKind]map[int][]time.Duration, error) {
	p := profileFor(o)
	ranks := p.perlRanks
	widths := []int{ranks, 2}
	perl := p.machine("Perlmutter")
	widthDataset := func(kind dsKind) *datasets.Dataset {
		if kind == dsIsing {
			return datasetFor(dsIsing, p.widthIsingN, 0)
		}
		// Width=2 holds ranks/2 replicas in memory; use the smallest
		// molecular set that feeds one global batch.
		n := p.widthMolN
		if n > 16000 {
			n = 16000
		}
		if n < p.perlRanks*p.localBatch*10/8+1 {
			n = p.perlRanks*p.localBatch*10/8 + 1
		}
		return datasetFor(kind, n, p.bins)
	}
	out := map[dsKind]map[int][]time.Duration{}
	for _, kind := range allKinds {
		out[kind] = map[int][]time.Duration{}
		for _, w := range widths {
			res, err := runCached(o, RunSpec{
				Machine: perl, Ranks: ranks, Method: MethodDDStore,
				Dataset: widthDataset(kind), Width: w, LocalBatch: p.localBatch,
				Epochs: p.epochs, MaxSteps: p.maxSteps, Seed: o.seed(), KeepLatencies: true,
			})
			if err != nil {
				return p, nil, err
			}
			out[kind][w] = res.latencies()
		}
	}
	return p, out, nil
}

// runFig12 reproduces Fig. 12: the loading latency CDF with the default
// width versus width=2.
func runFig12(o Options) (*Report, error) {
	p, outs, err := fig12Runs(o)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	cols := []string{"Dataset", "Width"}
	for _, f := range fractions {
		cols = append(cols, fmt.Sprintf("P%02.0f (ms)", f*100))
	}
	r := &Report{ID: "fig12", Title: "Latency CDF: width=default vs width=2 (Perlmutter)", Columns: cols}
	for _, kind := range allKinds {
		for _, w := range []int{p.perlRanks, 2} {
			row := []any{kind.String(), w}
			for _, f := range fractions {
				row = append(row, ms(stats.DurationPercentile(outs[kind][w], f*100)))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("shape to preserve: the width=2 curve sits far left of the default — most fetches become intra-node or local")
	return r, nil
}

// runTable3 reproduces Table 3: the 50th-percentile latency reduction from
// width=default to width=2.
func runTable3(o Options) (*Report, error) {
	p, outs, err := fig12Runs(o)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "table3",
		Title:   "Median loading latency: width=default vs width=2",
		Columns: []string{"Dataset", fmt.Sprintf("width=%d (ms)", p.perlRanks), "width=2 (ms)", "Reduction"},
	}
	for _, kind := range allKinds {
		wide := ms(stats.DurationPercentile(outs[kind][p.perlRanks], 50))
		narrow := ms(stats.DurationPercentile(outs[kind][2], 50))
		r.AddRow(kind.String(), wide, narrow, fmt.Sprintf("%.2f%%", 100*(1-narrow/wide)))
	}
	r.AddNote("paper: width=2 cuts the median latency by 79.17–87.18%% (0.24–0.44 ms -> 0.05–0.06 ms)")
	return r, nil
}

// runFig13 reproduces Fig. 13: real HydraGNN training to convergence on the
// smooth-spectrum dataset with the ReduceLROnPlateau scheduler; the paper's
// loss bump at epoch 26 is the scheduler halving the rate.
func runFig13(o Options) (*Report, error) {
	p := profileFor(o)
	out, err := runCached(o, RunSpec{
		Machine: p.machine("Summit"), Ranks: p.convRanks, Method: MethodDDStore,
		Dataset: datasetFor(dsSmooth, p.convSamples, p.convBins), LocalBatch: p.convBatch,
		Epochs: p.convEpochs, Seed: o.seed(),
		Model: &hydra.Config{HiddenDim: p.convHidden, ConvLayers: p.convConv, FCLayers: p.convFC},
	})
	if err != nil {
		return nil, err
	}
	res := out.Results[0]
	r := &Report{
		ID:      "fig13",
		Title:   "Convergence of train/validation/test MSE (smooth UV-vis spectra)",
		Columns: []string{"Epoch", "TrainLoss", "ValLoss", "TestLoss", "LRDecay"},
	}
	for _, e := range res.Epochs {
		mark := ""
		if e.LRDecayed {
			mark = "x0.5"
		}
		r.AddRow(e.Epoch, e.TrainLoss, e.ValLoss, e.TestLoss, mark)
	}
	first := res.Epochs[0]
	last := res.Epochs[len(res.Epochs)-1]
	r.AddNote("train loss: %.4g -> %.4g over %d epochs (scaled-down model: hidden %d, %d conv, %d FC, %d-bin spectra)",
		first.TrainLoss, last.TrainLoss, len(res.Epochs), p.convHidden, p.convConv, p.convFC, p.convBins)
	r.AddNote("paper: 100 epochs on 128 Summit nodes converge to MSE 0.015–0.016 after ~90 epochs, with a visible bump when ReduceLROnPlateau halves the rate at epoch 26")
	return r, nil
}
