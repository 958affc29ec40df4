// Command benchmark measures the served request path of DDStore end to end
// and layer by layer: six workloads (four of them held to bounds by
// BENCHMARK.json) against real loopback-TCP clusters and the in-process RMA
// plane, booted through internal/serveboot, two workers on one processor,
// every sample checked against a byte oracle. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Uint64("seed", 1, "workload seed: the sample ids every worker asks for derive from it")
	seconds := fs.Int("seconds", 10, "length of the measured window of each run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass")
	out := fs.String("out", "", "append each run's result, one JSON object per line, to this file")
	cmp := fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchmark [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-out file]\n       benchmark -compare old.json new.json")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "workloads (* in BENCHMARK.json, held to the bounds):")
		for _, wl := range workloads {
			mark := " "
			if wl.gated {
				mark = "*"
			}
			fmt.Fprintf(stderr, " %s %-20s %s\n", mark, wl.name, wl.why)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		olds, err := readResults(fs.Arg(0))
		if err == nil {
			var news []result
			if news, err = readResults(fs.Arg(1)); err == nil {
				if compare(stdout, olds, news) {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			wl := findWorkload(name)
			if wl == nil {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				fs.Usage()
				return 2
			}
			selected = append(selected, wl)
		}
	}

	h := pinProcs()
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s commit=%s seed=%d warmup=%v window=%ds trace=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.GitCommit, *seed, warmup, *seconds, *trace)
	if h.Note != "" {
		fmt.Fprintln(stdout, "host:", h.Note)
	}
	code := 0
	for _, wl := range selected {
		res, err := runWorkload(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, h)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printResult(stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		// The driver's line: the last line of a one-workload run.
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: samples differed from the byte oracle\n", wl.name)
			code = 1
		}
	}
	return code
}

// driverLine is a result in the shape the driver reads: exactly these keys,
// and of each metric its value and unit.
func driverLine(res *result) map[string]any {
	metrics := map[string]any{}
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

func printResult(w io.Writer, res *result) {
	wl := findWorkload(res.Workload)
	fmt.Fprintf(w, "\n== %s (seed %d, trace %d): %s\n", res.Workload, res.Seed, res.Trace, wl.why)
	fmt.Fprintf(w, "attempted %d, failed %d (failed_frac %.6f), correct %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tallocs/op")
	for _, d := range defs {
		m := res.Metrics[d.name]
		allocs := ""
		if m.AllocsPerOp != nil {
			allocs = fmt.Sprintf("%.2f", *m.AllocsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", d.name, m.Value, m.Unit, m.N, allocs)
	}
	tw.Flush()
	sort.Strings(res.Notes)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
