package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"ddstore/internal/stats"
)

// readResults reads a file written by -out: one JSON result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// verdict is the outcome of one (workload, end-to-end metric) row.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the new side's runs of one metric against the old side's.
// The row is worse when the new median is worse than the old one by more
// than bound (a share of the old median). It is unresolved when that cannot
// be told: a side has no runs, or the run-to-run spread of either side
// (distance between its quartiles, as a share of its median) is wider than
// the bound while the medians are within it.
func judge(d metricDef, olds, news []float64) (oldMed, newMed, ratio float64, v verdict) {
	if len(olds) == 0 || len(news) == 0 {
		return 0, 0, 0, unresolved
	}
	oldMed, newMed = median(olds), median(news)
	if oldMed == 0 {
		return oldMed, newMed, 0, unresolved
	}
	ratio = newMed / oldMed
	change := ratio - 1
	if d.better == "higher" {
		change = -change
	}
	if change > d.bound {
		return oldMed, newMed, ratio, worse
	}
	if spread(olds) > d.bound || spread(news) > d.bound {
		return oldMed, newMed, ratio, unresolved
	}
	return oldMed, newMed, ratio, ok
}

// spread is the distance between the first and third quartiles as a share
// of the median; 0 for fewer than two runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (stats.Percentile(xs, 75) - stats.Percentile(xs, 25)) / m
}

// compare prints one row per (workload, end-to-end metric) and reports
// whether any row is worse.
func compare(w io.Writer, olds, news []result) (anyWorse bool) {
	values := func(rs []result, wl, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, found := r.Metrics[name]; found && r.Workload == wl && r.Trace == 0 {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\truns\tnew median\truns\tnew/old\tbound\tverdict\t")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := values(olds, wl.name, d.name), values(news, wl.name, d.name)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			om, nm, ratio, v := judge(d, o, n)
			sign := "+"
			if d.better == "higher" {
				sign = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%d\t%.4g\t%d\t%.3f of %.4g\t%s%.0f%%\t%s\t\n",
				wl.name, d.name, d.unit, om, len(o), nm, len(n), ratio, om, sign, 100*d.bound, v)
			anyWorse = anyWorse || v == worse
		}
	}
	tw.Flush()
	failed := func(rs []result) (f, a int64) {
		for _, r := range rs {
			f, a = f+r.Failed, a+r.Attempted
		}
		return f, a
	}
	of, oa := failed(olds)
	nf, na := failed(news)
	fmt.Fprintf(w, "failed requests: old %d of %d, new %d of %d\n", of, oa, nf, na)
	// A request that fails or is refused misses every latency limit.
	return anyWorse || nf > of
}
