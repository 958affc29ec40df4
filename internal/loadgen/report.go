package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ddstore/internal/bench"
	"ddstore/internal/transport"
)

// ArtifactSchema is the version stamped into every loadgen JSON artifact.
// Bump it only when a field is renamed or its meaning changes; additions
// keep the version. The golden test in report_test.go pins the encoding.
const ArtifactSchema = 1

// Host records where an artifact was measured, so cross-PR diffs can
// tell a regression from a hardware change.
type Host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Artifact is the versioned on-disk form of a load run: one serving
// profile per phase, from the host it was measured on.
type Artifact struct {
	Schema    int                 `json:"schema"`
	Kind      string              `json:"kind"`
	Title     string              `json:"title"`
	CreatedAt string              `json:"created_at,omitempty"`
	Host      Host                `json:"host"`
	Addrs     []string            `json:"addrs"`
	Seed      uint64              `json:"seed"`
	Pool      transport.PoolStats `json:"pool"`
	Phases    []PhaseResult       `json:"phases"`
}

// Artifact packages the result for writing, stamping schema, host, and
// creation time.
func (r *Result) Artifact(title string) *Artifact {
	return &Artifact{
		Schema:    ArtifactSchema,
		Kind:      "loadgen",
		Title:     title,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Addrs:  r.Addrs,
		Seed:   r.Seed,
		Pool:   r.Pool,
		Phases: r.Phases,
	}
}

// JSON renders the artifact with stable indentation (the format the
// golden test pins and BENCH_*.json files are committed in).
func (a *Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	b, err := a.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Report renders the run as a bench.Report table: one row per phase with
// the latency percentiles, achieved throughput, and error/retry counts.
func (r *Result) Report() *bench.Report {
	rep := &bench.Report{
		ID:    "loadgen",
		Title: "live-serve load generator: per-phase latency and throughput",
		Columns: []string{
			"phase", "mode", "workers", "target-qps", "req", "err", "retry",
			"achieved-qps", "samples/s", "p50-ms", "p95-ms", "p99-ms", "max-ms", "MB",
		},
	}
	for _, ph := range r.Phases {
		target := "-"
		if ph.TargetQPS > 0 {
			target = fmt.Sprintf("%.4g", ph.TargetQPS)
		}
		rep.AddRow(ph.Name, ph.Mode, ph.Workers, target, ph.Requests, ph.Errors, ph.Retries,
			ph.AchievedQPS, ph.SamplesPerS, ph.P50ms, ph.P95ms, ph.P99ms, ph.MaxMs,
			float64(ph.Bytes)/(1<<20))
		if ph.Dropped > 0 {
			rep.AddNote("%s: dropped %d open-loop tokens (server saturated beyond the %d-deep arrival queue)",
				ph.Name, ph.Dropped, tokenQueueCap)
		}
		if ph.firstErr != nil {
			rep.AddNote("%s: first of %d errors: %v", ph.Name, ph.Errors, ph.firstErr)
		}
		if len(ph.Slowest) > 0 {
			worst := ph.Slowest[0]
			if worst.TraceID != "" {
				rep.AddNote("%s: slowest %s %.2fms (server %.2fms) trace %s",
					ph.Name, worst.Op, worst.LatencyMs, worst.ServerMs, worst.TraceID)
			} else {
				rep.AddNote("%s: slowest %s %.2fms", ph.Name, worst.Op, worst.LatencyMs)
			}
		}
	}
	if r.Pool.Dials > 0 { // elastic runs go through the group's own clients
		rep.AddNote("pool: %d dials, %d reuses across %d phases", r.Pool.Dials, r.Pool.Reuses, len(r.Phases))
	}
	return rep
}

// SweepOptions shape the standard phase plan built by Sweep — the plan
// behind `ddstore-bench -loadgen`, whose flags are where the defaults live.
type SweepOptions struct {
	// Quick runs a deterministic, seconds-long plan: closed phases issue
	// exactly QuickClosedRequests requests and the open phase runs for
	// under a second.
	Quick bool
	// Clients is the worker count of the open phase, and of the closed
	// pair when there is no Ramp.
	Clients int
	// Ramp, when set, runs the closed-loop pair once per client count.
	Ramp []int
	// QPS is the open-loop target rate.
	QPS float64
	// Duration is the per-phase wall budget in full mode.
	Duration time.Duration
	// Mix is the OpGetBatch fraction.
	Mix float64
}

// QuickClosedRequests is the exact request count of each quick-mode
// closed-loop phase; the e2e tests assert it.
const QuickClosedRequests = 256

// Sweep builds the standard phase plan: for each ramp step, a cold then a
// warm closed-loop phase, followed by one open-loop phase at the target
// QPS. Warm-vs-cold pairs quantify the server cache (on a server started
// for the run, or one whose cache the cold phase's Before resets); the
// open-loop tail measures queue-induced latency at a fixed arrival rate.
func Sweep(o SweepOptions) []Phase {
	ramp := o.Ramp
	if len(ramp) == 0 {
		ramp = []int{o.Clients}
	}
	var phases []Phase
	for step, c := range ramp {
		// Cold and warm share a pinned seed (and worker count), so the warm
		// phase replays the cold phase's exact request stream: the delta
		// between the pair isolates the server's cache.
		cold := Phase{
			Name: fmt.Sprintf("closed-cold-c%d", c), Mode: Closed, Workers: c,
			Mix: o.Mix, Seed: uint64(0x5eed) + uint64(step+1)*7919, Duration: o.Duration,
		}
		if o.Quick {
			cold.MaxRequests, cold.Duration = QuickClosedRequests, 30*time.Second // safety cap
		}
		warm := cold
		warm.Name = fmt.Sprintf("closed-warm-c%d", c)
		phases = append(phases, cold, warm)
	}
	open := Phase{
		Name: fmt.Sprintf("open-qps%g", o.QPS), Mode: Open, Workers: o.Clients,
		TargetQPS: o.QPS, Duration: o.Duration, Mix: o.Mix,
	}
	if o.Quick {
		open.Duration = 800 * time.Millisecond
	}
	return append(phases, open)
}
