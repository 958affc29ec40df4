// Command ddstore-train drives one distributed training run: pick a
// machine model, a rank count, a dataset, and a data management method, and
// it reports throughput and the per-phase time breakdown. The run is the
// experiment suite's own (bench.Run), exposed for ad-hoc exploration. A flag
// the chosen run would ignore (-cache-bytes or -width without -method
// ddstore, -hidden without -real) is a usage error.
//
// Usage:
//
//	ddstore-train -machine perlmutter -ranks 64 -dataset discrete -method ddstore
//	ddstore-train -machine summit -ranks 48 -dataset ising -method pff -epochs 2
//	ddstore-train -ranks 4 -dataset homolumo -method ddstore -real -epochs 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ddstore/internal/bench"
	"ddstore/internal/cluster"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/hydra"
	"ddstore/internal/obs"
	"ddstore/internal/stats"
	"ddstore/internal/trace"
)

func main() { os.Exit(run(os.Args[1:])) }

// run executes the command line and returns the process's exit status: 2
// for a usage error, 1 for a failed run.
func run(args []string) int {
	flags := flag.NewFlagSet("ddstore-train", flag.ContinueOnError)
	var (
		machineName = flags.String("machine", "perlmutter", "machine model: summit, perlmutter, laptop")
		ranks       = flags.Int("ranks", 16, "number of simulated ranks (GPUs)")
		dsName      = flags.String("dataset", "discrete", "dataset: ising, homolumo, discrete, smooth")
		n           = flags.Int("n", 20000, "dataset size in graphs")
		bins        = flags.Int("bins", 375, "smooth-spectrum grid size")
		method      = flags.String("method", "ddstore", "data management: pff, cff, ddstore")
		width       = flags.Int("width", 0, "DDStore width (0 = all ranks, single replica)")
		batch       = flags.Int("batch", 128, "local batch size")
		epochs      = flags.Int("epochs", 3, "training epochs")
		steps       = flags.Int("steps", 0, "max steps per epoch (0 = full epoch)")
		seed        = flags.Uint64("seed", 1, "random seed")
		real        = flags.Bool("real", false, "train a real (scaled-down) HydraGNN instead of the cost model")
		hidden      = flags.Int("hidden", 16, "hidden dim for -real")
		localShuf   = flags.Bool("local-shuffle", false, "use sharding with local shuffling instead of global shuffles (the conventional baseline of paper §2.2)")
		cacheBytes  = flags.Int64("cache-bytes", 0, "per-rank remote-sample cache budget for -method ddstore (0 = no cache)")
		debugAddr   = flags.String("debug-addr", "", "serve /metrics, /healthz, /trace, and /debug/pprof on this address during the run (empty = disabled)")
		traceOut    = flags.String("trace-out", "", "write a Chrome trace-event JSON file of per-batch spans (load in about://tracing)")
		metricsJSON = flags.String("metrics-json", "", "write the final metrics registry snapshot to this JSON file")
	)
	switch err := flags.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "ddstore-train: "+format+"\n", args...)
		return 2
	}
	failed := func(err error) int {
		fmt.Fprintf(os.Stderr, "ddstore-train: %v\n", err)
		return 1
	}

	set := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var m bench.Method
	for _, candidate := range bench.AllMethods {
		if strings.ToLower(string(candidate)) == *method {
			m = candidate
		}
	}
	switch {
	case m == "":
		return usage("unknown method %q", *method)
	case m != bench.MethodDDStore && (set["cache-bytes"] || set["width"]):
		return usage("-cache-bytes and -width apply to -method ddstore only")
	case set["hidden"] && !*real:
		return usage("-hidden applies to -real only")
	case *ranks <= 0:
		return usage("-ranks %d must be positive", *ranks)
	}
	machine, err := cluster.ByName(*machineName)
	if err != nil {
		return usage("%v", err)
	}
	ds, err := datasets.ByName(*dsName, datasets.Config{NumGraphs: *n, SpectrumBins: *bins})
	if err != nil {
		return usage("%v", err)
	}

	// One registry and one trace sink span the whole run: every rank's
	// engine feeds the shared latency histogram and event counters, and
	// each rank records batch spans into its own ring of the sink.
	reg := obs.NewRegistry()
	traces := obs.NewTraceSink(obs.DefaultSpanCap)
	if *debugAddr != "" {
		obs.CollectGoRuntime(reg)
		dbg, err := obs.StartDebug(*debugAddr, reg, traces)
		if err != nil {
			return failed(fmt.Errorf("debug server: %w", err))
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s (/metrics, /healthz, /trace, /debug/pprof/)\n", dbg.Addr())
	}

	spec := bench.RunSpec{
		Machine: machine, Ranks: *ranks, Method: m, Dataset: ds,
		LocalBatch: *batch, Epochs: *epochs, MaxSteps: *steps, Width: *width, Seed: *seed,
		KeepLatencies: true, LocalShuffle: *localShuf, CacheBytes: *cacheBytes,
		Metrics: reg, Trace: traces,
	}
	if *real {
		spec.Model = &hydra.Config{HiddenDim: *hidden, ConvLayers: 2, FCLayers: 2}
	}
	out, err := bench.Run(spec)
	if err != nil {
		return failed(err)
	}

	res, cs := out.Results[0], out.Cache
	fmt.Printf("%s | %d ranks (%d nodes) | %s | %s | batch %d\n",
		machine.Name, *ranks, machine.Nodes(*ranks), ds.Name(), *method, *batch)
	for _, e := range res.Epochs {
		line := fmt.Sprintf("epoch %2d: %8.0f samples/s  (%v virtual)", e.Epoch, e.Throughput, e.Duration)
		if *real {
			line += fmt.Sprintf("  train %.5f  val %.5f  test %.5f", e.TrainLoss, e.ValLoss, e.TestLoss)
			if e.LRDecayed {
				line += "  [lr x0.5]"
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("mean throughput: %.0f samples/s over %v virtual\n", res.MeanThroughput, res.TotalDuration)
	if lats := res.Latencies; len(lats) > 0 {
		fmt.Printf("rank 0 load latency: p50 %v  p95 %v  p99 %v over %d samples\n",
			stats.DurationPercentile(lats, 50), stats.DurationPercentile(lats, 95),
			stats.DurationPercentile(lats, 99), len(lats))
	}
	if *cacheBytes > 0 {
		fmt.Printf("rank 0 cache (%d B): %.1f%% hit rate, %d hits, %d misses, %d evictions, %d coalesced\n",
			*cacheBytes, 100*cs.HitRate(), cs.Hits, cs.Misses, cs.Evictions, cs.Coalesced)
	}
	fmt.Println()
	fmt.Println("per-region virtual time (all ranks):")
	fmt.Print(out.Prof.String())
	loading := make([][]time.Duration, len(out.Results))
	for rank, r := range out.Results {
		loading[rank] = r.Loading
	}
	printSkew(ddp.LoadingSkew(loading))

	if *metricsJSON != "" {
		js, err := reg.Snapshot().JSON()
		if err != nil {
			return failed(fmt.Errorf("metrics snapshot: %w", err))
		}
		if err := os.WriteFile(*metricsJSON, append(js, '\n'), 0o644); err != nil {
			return failed(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsJSON)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return failed(err)
		}
		werr := traces.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return failed(fmt.Errorf("write trace: %w", werr))
		}
		fmt.Printf("wrote Chrome trace to %s (load in about://tracing)\n", *traceOut)
	}
	return 0
}

// printSkew prints the per-epoch loading-time spread over the ranks and
// names the stragglers.
func printSkew(epochs []ddp.EpochSkew) {
	fmt.Println()
	fmt.Printf("per-epoch %s skew (straggler > %.1fx mean)\n", trace.RegionLoading, ddp.StragglerFactor)
	fmt.Printf("  %5s %12s %12s %6s %12s %6s %8s %s\n",
		"epoch", "mean", "min", "rank", "max", "rank", "max/mean", "stragglers")
	for _, e := range epochs {
		ratio := 0.0
		if e.Mean > 0 {
			ratio = float64(e.Max) / float64(e.Mean)
		}
		strag := "-"
		if len(e.Stragglers) > 0 {
			parts := make([]string, len(e.Stragglers))
			for i, r := range e.Stragglers {
				parts[i] = fmt.Sprint(r)
			}
			strag = strings.Join(parts, ",")
		}
		fmt.Printf("  %5d %12v %12v %6d %12v %6d %7.2fx %s\n",
			e.Epoch, e.Mean.Round(time.Microsecond), e.Min.Round(time.Microsecond), e.MinRank,
			e.Max.Round(time.Microsecond), e.MaxRank, ratio, strag)
	}
}
