// Command ddstore-serve exposes a dataset over the TCP data plane, so
// DDStore chunks can be fetched between real processes. It boots one
// cluster (internal/serveboot, where tests boot the same thing
// in-process): -elastic owners, one by default, behind a live shard map.
// Clients connect with transport.Dial, transport.NewGroupReplicas (one
// address list per replica) or transport.NewElasticGroup, which any
// server can seed: every server serves its shard map (or any client
// speaking the length-prefixed protocol in internal/transport).
//
// Usage:
//
//	# terminal 1-3: serve thirds of a CFF dataset, one owner each
//	ddstore-serve -cff /tmp/aisd -lo 0     -hi 33000 -addr 127.0.0.1:7001
//	ddstore-serve -cff /tmp/aisd -lo 33000 -hi 66000 -addr 127.0.0.1:7002
//	ddstore-serve -cff /tmp/aisd -lo 66000 -hi 99000 -addr 127.0.0.1:7003
//
//	# or two owners, admission control on; /admin/reshard?owners=3 grows it
//	ddstore-serve -dataset homolumo -n 10000 -elastic 2 \
//	  -addr 127.0.0.1:7001,127.0.0.1:7002 -debug-addr 127.0.0.1:7901 \
//	  -tenants 'alpha:rate=500;*:rate=100'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddstore/internal/faultnet"
	"ddstore/internal/serveboot"
)

// parseFlags turns the command line into the one Config a cluster boots
// from. Every flag applies to every owner count.
func parseFlags(args []string) (serveboot.Config, error) {
	var cfg serveboot.Config
	var chaos faultnet.Scenario
	fs := flag.NewFlagSet("ddstore-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7001", "comma-separated listen addresses, one per owner (owners beyond the list bind ephemeral loopback ports)")
	fs.StringVar(&cfg.CFFDir, "cff", "", "serve from a CFF directory")
	fs.StringVar(&cfg.PFFDir, "pff", "", "serve from a PFF directory")
	fs.StringVar(&cfg.Dataset, "dataset", "", "serve a synthetic dataset: ising, homolumo, discrete, smooth")
	fs.IntVar(&cfg.N, "n", 10000, "synthetic dataset size")
	fs.IntVar(&cfg.Bins, "bins", 0, "smooth-spectrum grid size")
	fs.Int64Var(&cfg.Lo, "lo", 0, "first sample id served (inclusive)")
	fs.Int64Var(&cfg.Hi, "hi", -1, "last sample id served (exclusive; -1 = dataset end)")

	// Owners route through a live shard map; /admin/reshard changes them.
	fs.IntVar(&cfg.Owners, "elastic", 0, "owners to boot behind the live shard map (0 or 1 = one owner)")
	fs.IntVar(&cfg.Width, "width", 0, "per-shard replica width the planner maintains (0 = 1)")

	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 5*time.Second, "per-response write deadline (0 = none)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "close connections idle this long (0 = never)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/flightrecorder, /debug/pprof and /admin/reshard on this address (empty = disabled)")

	// Multi-tenant admission control: budgets, queues, shedding, drain.
	fs.StringVar(&cfg.Tenants, "tenants", "", `per-tenant budgets, e.g. "alpha:rate=500,burst=50,conns=8;*:rate=100" (setting any front-end flag enables admission control)`)
	fs.IntVar(&cfg.MaxConns, "max-conns", 0, "cap concurrent client connections (0 = unlimited)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", 0, "bound each priority-class request queue (0 = default)")
	fs.IntVar(&cfg.FrontendWorkers, "frontend-workers", 0, "request worker permits draining the queues (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 5*time.Second, "graceful-drain bound on shutdown")

	// The always-on ring of anomalous requests (slow/errored/shed/stale).
	fs.IntVar(&cfg.FlightRecCap, "flightrec", 0, "flight recorder ring capacity (0 = default 256, negative = disabled)")
	fs.DurationVar(&cfg.SlowThreshold, "slow-threshold", 0, "flight-record successful requests slower than this (0 = default 250ms, negative = disabled)")
	fs.StringVar(&cfg.FlightRecDir, "flightrec-dir", "", "snapshot the flight recorder here when shed/stale rates spike (empty = no snapshots)")

	// Lazy on-demand serving through a byte-budgeted hot-sample cache.
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "serve lazily through a cache of this many bytes instead of preloading (0 = preload)")

	// A faultnet injector on every listener, for resilience drills.
	fs.Int64Var(&chaos.Seed, "chaos-seed", 1, "fault injection RNG seed")
	fs.Float64Var(&chaos.ResetProb, "chaos-reset", 0, "probability of a connection reset per I/O op")
	fs.Float64Var(&chaos.StallProb, "chaos-stall-prob", 0, "probability of a stall per I/O op")
	fs.DurationVar(&chaos.StallFor, "chaos-stall", 200*time.Millisecond, "stall duration when injected")
	fs.Float64Var(&chaos.CorruptProb, "chaos-corrupt", 0, "probability of flipping a byte per write")
	fs.DurationVar(&chaos.SlowStart, "chaos-slow-start", 0, "extra latency on each connection's first op")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	for _, a := range strings.Split(*addr, ",") {
		cfg.Addrs = append(cfg.Addrs, strings.TrimSpace(a))
	}
	if chaos.ResetProb > 0 || chaos.StallProb > 0 || chaos.CorruptProb > 0 || chaos.SlowStart > 0 {
		cfg.Chaos = &chaos
	}
	return cfg, nil
}

// run boots the cluster args describe, serves until stop delivers, shuts
// down and reports; it returns the process's exit status.
func run(args []string, stop <-chan os.Signal) int {
	cfg, err := parseFlags(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2 // the flag set has said why
	}
	c, err := serveboot.BootCluster(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddstore-serve: %v\n", err)
		return 2
	}
	lo, hi := c.Range()
	fmt.Printf("serving samples [%d,%d) on %d owners at generation %d (ctrl-c to stop)\n", lo, hi, c.OwnerCount(), c.Generation())
	for _, id := range c.OwnerIDs() {
		fmt.Printf("  %s on %s\n", id, c.Owner(id).Addr())
	}
	if dbg := c.DebugAddr(); dbg != "" {
		fmt.Printf("debug server on http://%s (/metrics, /healthz, /readyz, /debug/flightrecorder, /debug/pprof/, /admin/reshard?owners=N)\n", dbg)
	}
	if cfg.CacheBytes > 0 {
		fmt.Printf("lazy mode: LRU cache, %d byte budget\n", cfg.CacheBytes)
	}
	if _, ok := c.FrontendStats(); ok {
		fmt.Printf("front end: tenants=%q max-conns=%d queue-depth=%d workers=%d drain-timeout=%s\n",
			cfg.Tenants, cfg.MaxConns, cfg.QueueDepth, cfg.FrontendWorkers, cfg.DrainTimeout)
	}
	if cfg.Chaos != nil {
		fmt.Printf("chaos mode: %+v\n", *cfg.Chaos)
	}

	<-stop
	c.Close()
	if st, ok := c.FrontendStats(); ok {
		fmt.Printf("\nfront end: %d lookup + %d bulk admitted, %d shed %v\n",
			st.AdmittedByClass[0], st.AdmittedByClass[1], st.Shed, st.ShedByReason)
	}
	if st, ok := c.FaultStats(); ok {
		fmt.Printf("\ninjected faults: %+v\n", st)
	}
	if st, ok := c.CacheStats(); ok {
		fmt.Printf("\ncache: %.1f%% hit rate, %d hits, %d misses, %d evictions, %d coalesced, %d entries / %d B resident\n",
			100*st.HitRate(), st.Hits, st.Misses, st.Evictions, st.Coalesced, st.Entries, st.Bytes)
	}
	fmt.Printf("shut down at generation %d with %d owners\n", c.Generation(), c.OwnerCount())
	return 0
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig))
}
