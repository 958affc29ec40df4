// Command ddstore-gen materializes the synthetic atomistic datasets as real
// files in either storage format, for use with the real-disk stores and the
// TCP transport.
//
// Usage:
//
//	ddstore-gen -dataset homolumo -n 10000 -format cff -parts 8 -out /tmp/aisd
//	ddstore-gen -dataset ising -n 1000 -format pff -out /tmp/ising
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ddstore/internal/cff"
	"ddstore/internal/datasets"
	"ddstore/internal/pff"
)

func main() { os.Exit(run(os.Args[1:])) }

// run executes the command line and returns the process's exit status: 2
// for a usage error, 1 for a failed write.
func run(args []string) int {
	flags := flag.NewFlagSet("ddstore-gen", flag.ContinueOnError)
	var (
		name   = flags.String("dataset", "homolumo", "dataset: ising, homolumo, discrete, smooth")
		n      = flags.Int("n", 10000, "number of graphs")
		bins   = flags.Int("bins", 0, "smooth-spectrum grid size (smooth only; 0 = default 375)")
		format = flags.String("format", "cff", "storage format: pff (one file per sample) or cff (containers)")
		parts  = flags.Int("parts", 8, "container subfile count (cff only)")
		out    = flags.String("out", "", "output directory (required)")
	)
	switch err := flags.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "ddstore-gen: "+format+"\n", args...)
		return 2
	}
	if *out == "" {
		return usage("-out is required")
	}
	ds, err := datasets.ByName(*name, datasets.Config{NumGraphs: *n, SpectrumBins: *bins})
	if err != nil {
		return usage("%v", err)
	}

	start := time.Now()
	switch *format {
	case "pff":
		err = pff.Write(*out, ds, 0, int64(ds.Len()))
	case "cff":
		err = cff.Write(*out, ds, *parts)
	default:
		return usage("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-gen: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s: %d graphs as %s to %s in %v\n",
		ds.Name(), ds.Len(), *format, *out, time.Since(start).Round(time.Millisecond))
	return 0
}
