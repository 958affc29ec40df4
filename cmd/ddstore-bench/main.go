// Command ddstore-bench runs the paper-reproduction experiments — one per
// table and figure of the DDStore paper's evaluation section — and, with
// -loadgen, the load generator against remote ddstore-serve processes.
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
//	ddstore-bench -loadgen -addr 127.0.0.1:7001 -quick -out loadgen.json
//
// A scenario is several of these at once: one -loadgen -tenant process per
// tenant, a curl at /admin/reshard mid-run (scripts/smoke-elastic.sh). The
// numbers such scenarios are judged by come from benchmark/, not from here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ddstore/internal/bench"
	"ddstore/internal/loadgen"
	"ddstore/internal/obs"
)

// options is the parsed command line: what to run, and how to print it.
type options struct {
	exps  []bench.Experiment
	bench bench.Options

	loadgen bool
	load    loadgen.Config
	out     string // the loadgen artifact

	list       bool
	csv, json  bool
	traceOut   string
	metricsOut string
}

// parseFlags turns the command line into options; contradictory or
// incomplete combinations are usage errors, not silent preferences.
func parseFlags(args []string) (options, error) {
	var o options
	var sweep loadgen.SweepOptions
	fs := flag.NewFlagSet("ddstore-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1, fig4, ..., fig13) or 'all'")
	fs.BoolVar(&sweep.Quick, "quick", false, "run the scaled-down quick profile (seconds instead of minutes)")
	fs.Uint64Var(&o.load.Seed, "seed", 0, "random seed (0 = default)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&o.json, "json", false, "emit JSON instead of aligned tables")
	fs.BoolVar(&o.list, "list", false, "list available experiments and exit")
	fs.Int64Var(&o.bench.CacheBytes, "cache-bytes", 0, "per-rank remote-sample cache budget for DDStore runs (0 = no cache)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON of per-batch spans from every run (load in about://tracing)")
	fs.StringVar(&o.metricsOut, "metrics-json", "", "write the final metrics registry snapshot to this JSON file")

	// Load-generator mode: drive remote ddstore-serve processes instead of
	// running simulated experiments.
	fs.BoolVar(&o.loadgen, "loadgen", false, "drive a live ddstore-serve cluster (requires -addr)")
	addrs := fs.String("addr", "", "comma-separated ddstore-serve addresses to drive")
	fs.IntVar(&sweep.Clients, "clients", 4, "concurrent load-generator workers")
	fs.Float64Var(&sweep.QPS, "qps", 200, "open-loop target QPS (token-bucket rate)")
	fs.DurationVar(&sweep.Duration, "duration", 5*time.Second, "per-phase wall budget in full mode")
	ramp := fs.String("ramp", "", "comma-separated client counts for a closed-loop concurrency ramp (e.g. 1,4,16)")
	fs.Float64Var(&sweep.Mix, "mix", 0.25, "fraction of requests issued as OpGetBatch bulk fetches [0,1]")
	fs.StringVar(&o.load.MetricsURL, "scrape", "", "server /metrics URL to scrape after each phase (e.g. http://127.0.0.1:7901/metrics)")
	fs.StringVar(&o.out, "out", "BENCH_loadgen.json", "loadgen JSON artifact path ('' = don't write)")
	fs.StringVar(&o.load.Tenant, "tenant", "", "tenant identity declared to the server's admission control (loadgen mode)")
	fs.BoolVar(&o.load.Elastic, "elastic", false, "route -loadgen traffic through the cluster's live shard map (elastic ddstore-serve; -addr are the seeds)")
	fs.BoolVar(&o.load.Trace, "traced", false, "propagate a sampled trace context on every loadgen request; server timing segments merge into -trace-out and slowest exemplars carry trace ids")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.bench.Quick, o.bench.Seed = sweep.Quick, o.load.Seed

	usage := func(format string, args ...any) (options, error) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintf(fs.Output(), "ddstore-bench: %v\n", err)
		return o, err
	}
	if o.csv && o.json {
		return usage("-csv and -json are mutually exclusive; pick one output format")
	}
	if o.loadgen && *addrs == "" {
		return usage("-loadgen needs -addr: the address(es) of a live ddstore-serve (start one with: ddstore-serve -dataset homolumo -n 10000 -lo 0 -hi 10000)")
	}
	if !o.loadgen {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-addr", *addrs != ""}, {"-ramp", *ramp != ""}, {"-scrape", o.load.MetricsURL != ""},
			{"-tenant", o.load.Tenant != ""}, {"-elastic", o.load.Elastic}, {"-traced", o.load.Trace},
		} {
			if f.set {
				return usage("%s only applies to -loadgen mode", f.name)
			}
		}
	}
	if *ramp != "" {
		for _, s := range strings.Split(*ramp, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return usage("bad -ramp step %q: want positive client counts like 1,4,16", s)
			}
			sweep.Ramp = append(sweep.Ramp, n)
		}
	}
	if o.loadgen {
		for _, a := range strings.Split(*addrs, ",") {
			o.load.Addrs = append(o.load.Addrs, strings.TrimSpace(a))
		}
		o.load.Phases = loadgen.Sweep(sweep)
	}
	if *exp == "all" {
		o.exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				return usage("unknown experiment %q (use -list)", id)
			}
			o.exps = append(o.exps, e)
		}
	}
	return o, nil
}

// run executes the command line and returns the process's exit status:
// 2 for a usage error (parseFlags has said why), 1 for a failed run.
func run(args []string) int {
	o, err := parseFlags(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if o.list {
		fmt.Printf("%-8s %s\n", "loadgen", "Live-serve load generator: open/closed-loop QPS and concurrency sweeps against remote ddstore-serve processes (-loadgen -addr ...)")
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if o.loadgen {
		err = runLoadgen(o)
	} else {
		err = runExperiments(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: %v\n", err)
		return 1
	}
	return 0
}

func main() {
	// The at-scale experiments allocate aggressively (hundreds of thousands
	// of decoded graphs in flight across simulated ranks); a soft memory
	// limit makes the GC trade CPU for residency instead of dying on
	// memory-constrained machines.
	debug.SetMemoryLimit(10 << 30)
	debug.SetGCPercent(50)
	os.Exit(run(os.Args[1:]))
}

func runExperiments(o options) error {
	opts := o.bench
	if o.metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if o.traceOut != "" {
		opts.Trace = obs.NewTraceSink(obs.DefaultSpanCap)
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
	for _, e := range o.exps {
		if g := group(e.ID); g != prevGroup {
			bench.ResetCaches()
			prevGroup = g
		}
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := printReport(report, o); err != nil {
			return err
		}
		if !o.json {
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if opts.Metrics != nil {
		out, err := opts.Metrics.Snapshot().JSON()
		if err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
		if err := os.WriteFile(o.metricsOut, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", o.metricsOut)
	}
	if opts.Trace != nil {
		if err := writeTrace(o.traceOut, opts.Trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load in about://tracing)\n", o.traceOut)
	}
	return nil
}

func printReport(report *bench.Report, o options) error {
	switch {
	case o.json:
		out, err := report.JSON()
		if err != nil {
			return fmt.Errorf("%s: %w", report.ID, err)
		}
		fmt.Println(out)
	case o.csv:
		fmt.Printf("# %s — %s\n%s\n", report.ID, report.Title, report.CSV())
	default:
		fmt.Println(report.String())
	}
	return nil
}

// writeTrace creates path and has write fill it with a Chrome trace.
func writeTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write trace: %w", werr)
	}
	return nil
}

func runLoadgen(o options) error {
	cfg := o.load
	// With both -traced and -trace-out set, the run collects client root
	// spans plus the server segments synthesized from timing trailers into
	// one ring, so the emitted file is a single merged Chrome trace.
	var ring *obs.SpanRing
	if cfg.Trace && o.traceOut != "" {
		ring = obs.NewSpanRing(obs.DefaultSpanCap, 0)
		ring.SetLabel("loadgen")
		cfg.TraceSpans = ring
	}

	// Ctrl-C drains in-flight workers and still reports the phases that
	// completed, so a long sweep interrupted late is not wasted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.Run(ctx, cfg)
	if res == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-bench: loadgen interrupted (%v); reporting completed phases\n", err)
	}

	if err := printReport(res.Report(), o); err != nil {
		return err
	}
	if o.out != "" {
		title := fmt.Sprintf("loadgen sweep against %s", strings.Join(cfg.Addrs, ","))
		if err := res.Artifact(title).WriteFile(o.out); err != nil {
			return fmt.Errorf("write artifact: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote loadgen artifact to %s\n", o.out)
	}
	if ring != nil {
		if err := writeTrace(o.traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, ring) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote merged client+server Chrome trace to %s (load in about://tracing)\n", o.traceOut)
	}
	return nil
}
