// Command ddstore-bench runs the paper-reproduction experiments — one per
// table and figure of the DDStore paper's evaluation section — and, with
// -loadgen, the closed-loop load generator against a live ddstore-serve
// cluster.
//
// Usage:
//
//	ddstore-bench -exp fig4           # one experiment, full scale
//	ddstore-bench -exp all -quick     # whole suite at test scale
//	ddstore-bench -list               # show available experiments and modes
//	ddstore-bench -exp table2 -csv    # machine-readable output
//
//	# drive a live server: QPS/concurrency sweep with warm/cold phases
//	ddstore-serve -dataset homolumo -n 10000 -lo 0 -hi 10000 -addr 127.0.0.1:7001 &
//	ddstore-bench -loadgen -addr 127.0.0.1:7001 -clients 8 -qps 500 -mix 0.25
//	ddstore-bench -loadgen -addr 127.0.0.1:7001 -quick -out BENCH_loadgen.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ddstore/internal/bench"
	"ddstore/internal/datasets"
	"ddstore/internal/loadgen"
	"ddstore/internal/obs"
	"ddstore/internal/serveboot"
)

// usageError prints a usage-level complaint and exits 2, matching flag
// package conventions.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ddstore-bench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	// The at-scale experiments allocate aggressively (hundreds of thousands
	// of decoded graphs in flight across simulated ranks); a soft memory
	// limit makes the GC trade CPU for residency instead of dying on
	// memory-constrained machines.
	debug.SetMemoryLimit(10 << 30)
	debug.SetGCPercent(50)

	var (
		exp        = flag.String("exp", "all", "experiment id (table1, fig4, ..., fig13) or 'all'")
		quick      = flag.Bool("quick", false, "run the scaled-down quick profile (seconds instead of minutes)")
		seed       = flag.Uint64("seed", 0, "random seed (0 = default)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = flag.Bool("json", false, "emit JSON (includes the fetch-latency percentile digest) instead of aligned tables")
		list       = flag.Bool("list", false, "list available experiments and exit")
		cacheBytes = flag.Int64("cache-bytes", 0, "per-rank remote-sample cache budget for DDStore runs (0 = no cache)")
		cachePol   = flag.String("cache-policy", "lru", "cache eviction policy: lru, fifo, clock")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of per-batch spans from every run (load in about://tracing)")
		metricsOut = flag.String("metrics-json", "", "write the final metrics registry snapshot to this JSON file")

		// Load-generator mode: drive a live ddstore-serve cluster instead
		// of running simulated experiments.
		loadgenMode = flag.Bool("loadgen", false, "drive a live ddstore-serve cluster (requires -addr)")
		addrs       = flag.String("addr", "", "comma-separated ddstore-serve addresses to drive")
		clients     = flag.Int("clients", 4, "concurrent load-generator workers")
		qps         = flag.Float64("qps", 200, "open-loop target QPS (token-bucket rate)")
		duration    = flag.Duration("duration", 5*time.Second, "per-phase wall budget in full mode")
		ramp        = flag.String("ramp", "", "comma-separated client counts for a closed-loop concurrency ramp (e.g. 1,4,16)")
		mix         = flag.Float64("mix", 0.25, "fraction of requests issued as OpGetBatch bulk fetches [0,1]")
		batch       = flag.Int("batch", 8, "ids per bulk fetch")
		metricsURL  = flag.String("scrape", "", "server /metrics URL to scrape after each phase (e.g. http://127.0.0.1:7901/metrics)")
		artifactOut = flag.String("out", "BENCH_loadgen.json", "loadgen JSON artifact path ('' = don't write)")
		tenant      = flag.String("tenant", "", "tenant identity declared to the server's admission control (loadgen mode)")
		elastic     = flag.Bool("elastic", false, "route -loadgen traffic through the cluster's live shard map (elastic ddstore-serve; -addr are the seeds)")
		traced      = flag.Bool("traced", false, "propagate a sampled trace context on every loadgen request; server timing segments merge into -trace-out and slowest exemplars carry trace ids")

		// Reshard mode: the self-contained live-migration bench — boot an
		// in-process 2-owner elastic cluster, grow it mid-load, and compare
		// steady-state throughput before vs after.
		reshard        = flag.Int("reshard", 0, "grow an in-process 2-owner elastic cluster to this many owners mid-load and write the pre/during/post artifact")
		reshardSamples = flag.Int("reshard-samples", 2000, "dataset size for the -reshard cluster")

		// Isolation mode: the two-tenant sweep proving a hostile tenant
		// cannot push a polite tenant's tail latency past its baseline.
		isolation  = flag.Bool("isolation", false, "run the two-tenant isolation sweep against a live ddstore-serve (requires -addr; uses -qps for the polite tenant)")
		tenantA    = flag.String("tenant-a", "alpha", "polite tenant name for -isolation")
		tenantB    = flag.String("tenant-b", "beta", "hostile tenant name for -isolation")
		hostileQPS = flag.Float64("hostile-qps", 0, "hostile tenant's offered QPS for -isolation (0 = 4x -qps)")
	)
	flag.Parse()

	// Contradictory or incomplete flag combos are usage errors, not silent
	// preferences.
	if *csv && *jsonOut {
		usageError("-csv and -json are mutually exclusive; pick one output format")
	}
	if *loadgenMode && *isolation {
		usageError("-loadgen and -isolation are mutually exclusive; pick one mode")
	}
	if *reshard != 0 && (*loadgenMode || *isolation) {
		usageError("-reshard boots its own in-process cluster; it cannot combine with -loadgen or -isolation")
	}
	if *reshard != 0 && *reshard < 3 {
		usageError("-reshard wants a target of 3+ owners (the cluster starts at 2)")
	}
	if *elastic && !*loadgenMode {
		usageError("-elastic only applies to -loadgen mode")
	}
	if *traced && !*loadgenMode {
		usageError("-traced only applies to -loadgen mode")
	}
	if *loadgenMode && *addrs == "" {
		usageError("-loadgen needs -addr: the address(es) of a live ddstore-serve (start one with: ddstore-serve -dataset homolumo -n 10000 -lo 0 -hi 10000)")
	}
	if *isolation && *addrs == "" {
		usageError("-isolation needs -addr: a live ddstore-serve with the front end enabled (e.g. ddstore-serve -dataset homolumo -tenants 'alpha:rate=2000;beta:rate=100')")
	}
	if !*loadgenMode && !*isolation && *reshard == 0 {
		for name, set := range map[string]bool{
			"-addr": *addrs != "", "-ramp": *ramp != "", "-scrape": *metricsURL != "",
			"-tenant": *tenant != "",
		} {
			if set {
				usageError("%s only applies to -loadgen, -isolation, or -reshard mode", name)
			}
		}
	}

	if *list {
		fmt.Printf("%-8s %s\n", "loadgen", "Live-serve load generator: open/closed-loop QPS and concurrency sweeps (-loadgen -addr ...)")
		fmt.Printf("%-8s %s\n", "isolation", "Two-tenant isolation sweep: polite tenant alone vs alongside a hostile flood (-isolation -addr ...)")
		fmt.Printf("%-8s %s\n", "reshard", "Live-resharding bench: in-process elastic cluster grown mid-load, pre/during/post steady state (-reshard 3)")
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *loadgenMode || *isolation || *reshard != 0 {
		lf := loadgenFlags{
			addrs: *addrs, quick: *quick, seed: *seed, csv: *csv, json: *jsonOut,
			clients: *clients, qps: *qps, duration: *duration, ramp: *ramp,
			mix: *mix, batch: *batch, metricsURL: *metricsURL, out: *artifactOut,
			tenant: *tenant, elastic: *elastic, traced: *traced, traceOut: *traceOut,
		}
		switch {
		case *isolation:
			runIsolation(lf, *tenantA, *tenantB, *hostileQPS)
		case *reshard != 0:
			runReshard(lf, *reshard, *reshardSamples)
		default:
			runLoadgen(lf)
		}
		return
	}

	opts := bench.Options{Quick: *quick, Seed: *seed, CacheBytes: *cacheBytes, CachePolicy: *cachePol}
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if *traceOut != "" {
		opts.Trace = obs.NewTraceSink(obs.DefaultSpanCap)
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				usageError("unknown experiment %q (use -list)", id)
			}
			exps = append(exps, e)
		}
	}

	// Experiments in the same group share cached runs (fig5/fig6/table2 all
	// analyze one suite of runs); reset memoization only across groups to
	// bound peak memory without repeating work.
	group := func(id string) string {
		switch id {
		case "fig5", "fig6", "table2":
			return "perl64-suite"
		case "fig12", "table3":
			return "width-suite"
		case "fig8", "fig9":
			return "scaling-suite"
		default:
			return id
		}
	}
	prevGroup := ""
	for _, e := range exps {
		if g := group(e.ID); g != prevGroup {
			bench.ResetCaches()
			prevGroup = g
		}
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		printReport(report, *csv, *jsonOut)
		if !*jsonOut {
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if opts.Metrics != nil {
		out, err := opts.Metrics.Snapshot().JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: metrics snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metricsOut, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	if opts.Trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: %v\n", err)
			os.Exit(1)
		}
		werr := opts.Trace.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: write trace: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load in about://tracing)\n", *traceOut)
	}
}

func printReport(report *bench.Report, csv, jsonOut bool) {
	switch {
	case jsonOut:
		out, err := report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: %s: %v\n", report.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
	case csv:
		fmt.Printf("# %s — %s\n%s\n", report.ID, report.Title, report.CSV())
	default:
		fmt.Println(report.String())
	}
}

type loadgenFlags struct {
	addrs      string
	quick      bool
	seed       uint64
	csv, json  bool
	clients    int
	qps        float64
	duration   time.Duration
	ramp       string
	mix        float64
	batch      int
	metricsURL string
	out        string
	tenant     string
	elastic    bool
	traced     bool
	traceOut   string
}

func runLoadgen(f loadgenFlags) {
	var rampSteps []int
	if f.ramp != "" {
		for _, s := range strings.Split(f.ramp, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				usageError("bad -ramp step %q: want positive client counts like 1,4,16", s)
			}
			rampSteps = append(rampSteps, n)
		}
	}

	cfg := loadgen.Config{
		Addrs: strings.Split(f.addrs, ","),
		Seed:  f.seed,
		Phases: loadgen.Sweep(loadgen.SweepOptions{
			Quick: f.quick, Clients: f.clients, Ramp: rampSteps,
			QPS: f.qps, Duration: f.duration, Mix: f.mix, BatchSize: f.batch,
		}),
		MetricsURL: f.metricsURL,
		Tenant:     f.tenant,
		Elastic:    f.elastic,
		Trace:      f.traced,
	}
	for i := range cfg.Addrs {
		cfg.Addrs[i] = strings.TrimSpace(cfg.Addrs[i])
	}
	// With both -traced and -trace-out set, the run collects client root
	// spans plus the server segments synthesized from timing trailers into
	// one ring, so the emitted file is a single merged Chrome trace.
	var ring *obs.SpanRing
	if f.traced && f.traceOut != "" {
		ring = obs.NewSpanRing(obs.DefaultSpanCap, 0)
		ring.SetLabel("loadgen")
		cfg.TraceSpans = ring
	}

	// Ctrl-C drains in-flight workers and still reports the phases that
	// completed, so a long sweep interrupted late is not wasted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.Run(ctx, cfg)
	if res == nil && err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: loadgen: %v\n", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: loadgen interrupted (%v); reporting completed phases\n", err)
	}

	printReport(res.Report(), f.csv, f.json)
	if f.out != "" {
		title := fmt.Sprintf("loadgen sweep against %s", f.addrs)
		if err := res.Artifact(title).WriteFile(f.out); err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: write artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote loadgen artifact to %s\n", f.out)
	}
	if ring != nil {
		fl, err := os.Create(f.traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: %v\n", err)
			os.Exit(1)
		}
		werr := obs.WriteChromeTrace(fl, ring)
		if cerr := fl.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: write trace: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote merged client+server Chrome trace to %s (load in about://tracing)\n", f.traceOut)
	}
}

// runReshard is the self-contained live-migration bench: boot a 2-owner
// elastic cluster in-process, run a pre/during/post closed-loop plan
// through the shard-map-routing client, grow the cluster to the target
// owner count as the middle phase starts, and report the steady-state
// throughput delta. The acceptance bound is a <= 5% regression.
func runReshard(f loadgenFlags, owners, samples int) {
	c, err := serveboot.BootCluster(serveboot.Config{
		Source:    datasets.HomoLumo(datasets.Config{NumGraphs: samples}),
		Owners:    2,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: reshard: boot cluster: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	dur := f.duration
	if f.quick {
		dur = 700 * time.Millisecond
	}
	phase := func(name string) loadgen.Phase {
		return loadgen.Phase{
			Name: name, Mode: loadgen.Closed, Workers: f.clients,
			Duration: dur, Mix: f.mix, BatchSize: f.batch,
		}
	}
	cfg := loadgen.Config{
		Addrs:      c.Addrs(),
		Seed:       f.seed,
		Elastic:    true,
		Phases:     []loadgen.Phase{phase("pre-reshard"), phase("during-reshard"), phase("post-reshard")},
		MetricsURL: c.MetricsURL(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.RunReshard(ctx, cfg, c, owners)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: reshard: %v\n", err)
		os.Exit(1)
	}

	printReport(res.Report(), f.csv, f.json)
	if !f.json {
		verdict := "HELD"
		if res.RegressionPct > 5 {
			verdict = "BROKEN"
		}
		fmt.Printf("reshard: generation %d -> %d (2 -> %d owners) in %.3fs; steady state %.0f -> %.0f samples/s (regression %.1f%%, bound 5%%: %s)\n",
			res.PreGen, res.PostGen, owners, res.MigrationS,
			res.Phases[0].SamplesPerS, res.Phases[2].SamplesPerS, res.RegressionPct, verdict)
	}
	if f.out != "" {
		title := fmt.Sprintf("live reshard 2 -> %d owners under closed-loop load (%d samples, %d workers)",
			owners, samples, f.clients)
		if err := res.Artifact(title).WriteFile(f.out); err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: write artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote reshard artifact to %s\n", f.out)
	}
	// The hard gate is correctness: a migrated chunk must never surface as
	// a client error. The throughput verdict above is advisory — on a
	// shared box the in-process cluster competes with its own clients for
	// cores, so the steady-state bound is judged on quiet hardware.
	for _, ph := range res.Phases {
		if ph.Errors > 0 {
			fmt.Fprintf(os.Stderr, "ddstore-bench: reshard: phase %s saw %d hard errors\n", ph.Name, ph.Errors)
			os.Exit(1)
		}
	}
}

func runIsolation(f loadgenFlags, tenantA, tenantB string, hostileQPS float64) {
	qpsA := f.qps
	if qpsA <= 0 {
		qpsA = 200
	}
	if hostileQPS <= 0 {
		hostileQPS = 4 * qpsA
	}
	addrs := strings.Split(f.addrs, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.RunIsolation(ctx, loadgen.IsolationConfig{
		Addrs:      addrs,
		MetricsURL: f.metricsURL,
		Seed:       f.seed,
		TenantA:    tenantA,
		TenantB:    tenantB,
		QPSA:       qpsA,
		QPSB:       hostileQPS,
		Duration:   f.duration,
		Workers:    f.clients,
		MixB:       f.mix,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: isolation: %v\n", err)
		os.Exit(1)
	}

	// Reuse the loadgen table: three rows (baseline, contended, hostile).
	synth := &loadgen.Result{
		Addrs:  addrs,
		Seed:   f.seed,
		Phases: []loadgen.PhaseResult{res.Baseline, res.Contended, res.Hostile},
	}
	printReport(synth.Report(), f.csv, f.json)
	if !f.json {
		verdict := "HELD"
		if res.P99Ratio > 2 {
			verdict = "BROKEN"
		}
		fmt.Printf("isolation: %s p99 %.3fms alone -> %.3fms contended (ratio %.2fx, bound 2x: %s); %s shed %d of %d offered\n",
			tenantA, res.Baseline.P99ms, res.Contended.P99ms, res.P99Ratio, verdict,
			tenantB, res.Hostile.Shed, res.Hostile.Requests)
	}
	if f.out != "" {
		title := fmt.Sprintf("two-tenant isolation sweep against %s (%s at %.0f qps vs %s at %.0f qps)",
			f.addrs, tenantA, qpsA, tenantB, hostileQPS)
		if err := synth.Artifact(title).WriteFile(f.out); err != nil {
			fmt.Fprintf(os.Stderr, "ddstore-bench: write artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote isolation artifact to %s\n", f.out)
	}
}
