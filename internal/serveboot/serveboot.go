// Package serveboot assembles a serving cluster — data source, owners,
// shard map, front end, cache, flight recorder, metrics registry, debug
// endpoint, and optional chaos injection — from one Config.
// cmd/ddstore-serve is a thin flag-parsing shell over BootCluster; tests
// and the load-generator harness boot the same cluster in-process.
//
// A Cluster is a set of in-process owners routing every request through a
// versioned shard map (internal/shardmap). Owners can join, leave, or
// crash while clients keep loading: a membership transition plans the
// minimal chunk moves, the gaining owners pull the moved chunks over the
// batched fetch path while the old owners keep serving, and the next
// generation is published gainers-first so every sample stays addressable
// throughout — a client that lands on the wrong owner gets a
// stale-generation answer carrying the new map and retries, never a hard
// error. There is one boot path: a static server is a one-owner cluster
// that never resharded (it stays at generation 1), so tenants, lazy
// serving, graceful drain and resharding exist on every shape.
package serveboot

import (
	"fmt"
	"time"

	"ddstore/internal/cff"
	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/pff"
	"ddstore/internal/transport"
)

// SampleSource is the subset of dataset/store behaviour the server needs:
// AppendSample appends sample id to buf in wire encoding, the form an owner
// keeps and serves, and returns the extended buffer.
type SampleSource interface {
	Len() int
	AppendSample(buf []byte, id int64) ([]byte, error)
}

// Config describes one cluster: Owners owners serving the keyspace
// [Lo, Hi) of one data source. Exactly one of CFFDir, PFFDir, Dataset, or
// Source selects the durable backing data (what owners preload or fault
// in from, and the source of last resort when no surviving owner holds a
// moved chunk).
type Config struct {
	// Addrs are the listen addresses of the initial owners, in order;
	// owners beyond the list — and every owner added later — bind an
	// ephemeral loopback port.
	Addrs []string

	// CFFDir / PFFDir serve from an on-disk dataset directory.
	CFFDir, PFFDir string
	// Dataset names a synthetic dataset: ising, homolumo, discrete, smooth.
	Dataset string
	// N and Bins size the synthetic dataset.
	N, Bins int
	// Source serves a caller-provided dataset directly (tests).
	Source SampleSource

	// Lo and Hi bound the served keyspace [Lo, Hi); Hi <= 0 means the
	// dataset end.
	Lo, Hi int64

	// Owners is the initial owner count (default 1).
	Owners int
	// Width is the per-shard replica width the planner maintains
	// (default 1).
	Width int

	// WriteTimeout / IdleTimeout are each owner's defensive limits.
	WriteTimeout, IdleTimeout time.Duration
	// Net is the retry/deadline policy of the migration pull clients.
	Net transport.RetryPolicy

	// CacheBytes switches from eager preload to lazy on-demand serving
	// through one byte-budgeted hot-sample cache of this size, shared by
	// the cluster's owners.
	CacheBytes int64

	// DebugAddr enables the debug endpoint — /metrics, /healthz, /readyz,
	// /debug/flightrecorder, /debug/pprof, /admin/reshard?owners=N — on
	// this address ("" = disabled; "127.0.0.1:0" for an ephemeral port).
	// It also decides whether the request path is metered, see
	// BootCluster.
	DebugAddr string

	// Tenants enables the multi-tenant serving front end (admission
	// control, per-tenant budgets, priority queues, load shedding) with
	// the budgets it describes; see frontend.ParseTenants for the
	// syntax. Setting any of Tenants, MaxConns, QueueDepth, or
	// FrontendWorkers enables the front end; the cluster's owners share
	// it.
	Tenants string
	// MaxConns caps concurrent admitted connections (0 = unlimited).
	MaxConns int
	// QueueDepth bounds each priority-class request queue (0 = the
	// front end's default).
	QueueDepth int
	// FrontendWorkers sizes the worker-permit pool draining the queues
	// (0 = GOMAXPROCS).
	FrontendWorkers int
	// DrainTimeout bounds the graceful drain Close performs when the
	// front end is enabled (default 5s).
	DrainTimeout time.Duration

	// Chaos, when non-nil, wraps every owner's listener in one faultnet
	// injector, so both client traffic and migration pulls cross a faulty
	// fabric (resilience drills and the fault-mix load tests).
	Chaos *faultnet.Scenario

	// FlightRecCap sizes the always-on flight recorder's bounded ring of
	// slow/errored/shed/stale request records, shared by every owner
	// (0 = default 256, negative disables the recorder entirely).
	FlightRecCap int
	// SlowThreshold is the service time above which a successful request
	// is flight-recorded as slow (0 = default 250ms, negative disables
	// slow capture while keeping error/shed/stale records).
	SlowThreshold time.Duration
	// FlightRecDir, when set, arms the spike watcher: a shed- or
	// stale-rate spike snapshots the recorder's contents as a JSON file
	// in this directory, so the evidence survives the incident.
	FlightRecDir string
}

// ElasticConfig is Config under its former elastic-path name (benchmark/ uses it).
type ElasticConfig = Config

// openSource resolves the configured data backing and what closes it.
func openSource(cfg Config) (SampleSource, func() error, error) {
	switch {
	case cfg.Source != nil:
		return cfg.Source, nil, nil
	case cfg.CFFDir != "":
		st, err := cff.Open(cfg.CFFDir)
		if err != nil {
			return nil, nil, err
		}
		return st, st.Close, nil
	case cfg.PFFDir != "":
		src, err := pff.Open(cfg.PFFDir)
		if err != nil {
			return nil, nil, err
		}
		return src, nil, nil
	case cfg.Dataset != "":
		ds, err := datasets.ByName(cfg.Dataset, datasets.Config{NumGraphs: cfg.N, SpectrumBins: cfg.Bins})
		if err != nil {
			return nil, nil, fmt.Errorf("serveboot: %w", err)
		}
		return ds, nil, nil
	default:
		return nil, nil, fmt.Errorf("serveboot: one of CFFDir, PFFDir, Dataset, or Source is required")
	}
}

// Instance is a Cluster under the name static callers know it by.
type Instance = Cluster

// Boot starts a one-owner cluster from cfg.
func Boot(cfg Config) (*Instance, error) {
	cfg.Owners = 1
	return BootCluster(cfg)
}
