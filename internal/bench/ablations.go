package bench

import (
	"ddstore/internal/core"
	"ddstore/internal/stats"
)

// The ablation experiments probe the design choices the paper discusses in
// §3.1 but does not quantify: the communication framework 'f' (one-sided
// RMA versus a two-sided request/response design), per-batch lock
// amortization, and overlapped non-blocking Gets. They go beyond the
// paper's figures; EXPERIMENTS.md records their outcomes alongside the
// reproductions.
func init() {
	register("abl-comm", "Ablation: one-sided RMA vs two-sided request/response", runAblComm)
	register("abl-lock", "Ablation: per-owner lock amortization vs per-sample locks", runAblLock)
	register("abl-nb", "Ablation: blocking vs overlapped non-blocking Gets", runAblNB)
}

// ablSpec returns the shared configuration for the ablations: the
// Perlmutter 64-GPU discrete-dataset workload of the latency experiments.
func ablSpec(o Options) (profile, RunSpec) {
	p := profileFor(o)
	perl := p.machine("Perlmutter")
	return p, RunSpec{
		Machine: perl, Ranks: p.perlRanks, Method: MethodDDStore,
		Dataset: p.dataset(dsDiscrete, perl), LocalBatch: p.localBatch,
		Epochs: p.epochs, MaxSteps: p.maxSteps, Seed: o.seed(), KeepLatencies: true,
	}
}

func ablRow(r *Report, name string, out *RunOut, baseline float64) {
	p50, p95, p99 := latencyPercentiles(out.latencies())
	r.AddRow(name, out.meanThroughput(), out.meanThroughput()/baseline, p50, p95, p99)
}

var ablColumns = []string{"Design", "Samples/s", "vs baseline", "P50 (ms)", "P95 (ms)", "P99 (ms)"}

// runAblComm compares the chosen one-sided design against the rejected
// two-sided one under identical training load.
func runAblComm(o Options) (*Report, error) {
	_, spec := ablSpec(o)
	r := &Report{ID: "abl-comm", Title: "Communication framework ablation (Perlmutter, AISD-Ex discrete)", Columns: ablColumns}

	twoSided := spec
	twoSided.Framework = core.FrameworkTwoSided
	ts, err := runCached(o, twoSided)
	if err != nil {
		return nil, err
	}
	rma, err := runCached(o, spec)
	if err != nil {
		return nil, err
	}
	ablRow(r, "two-sided req/resp", ts, ts.meanThroughput())
	ablRow(r, "one-sided RMA", rma, ts.meanThroughput())
	r.AddNote("the paper chose MPI RMA because it minimizes the target's involvement (§3.1); the two-sided design makes every fetch wait for the owner's CPU")
	if rma.meanThroughput() > 0 && ts.meanThroughput() > 0 {
		r.AddNote("measured: one-sided is %.2fx the two-sided end-to-end throughput", rma.meanThroughput()/ts.meanThroughput())
	}
	return r, nil
}

// runAblLock measures the value of amortizing the window lock over a
// batch's per-owner samples.
func runAblLock(o Options) (*Report, error) {
	_, spec := ablSpec(o)
	r := &Report{ID: "abl-lock", Title: "Lock amortization ablation (Perlmutter, AISD-Ex discrete)", Columns: ablColumns}

	perSample := spec
	perSample.LockPerSample = true
	ps, err := runCached(o, perSample)
	if err != nil {
		return nil, err
	}
	amortized, err := runCached(o, spec)
	if err != nil {
		return nil, err
	}
	ablRow(r, "lock per sample", ps, ps.meanThroughput())
	ablRow(r, "lock per owner (default)", amortized, ps.meanThroughput())
	r.AddNote("DDStore opens one MPI_Win_lock(SHARED) epoch per owner per batch; paying the lock round-trip per sample inflates every fetch by ~%v", spec.Machine.RMALock(false))
	return r, nil
}

// runAblNB measures overlapped non-blocking Gets (MPI_Rget) against the
// default blocking Gets.
func runAblNB(o Options) (*Report, error) {
	_, spec := ablSpec(o)
	r := &Report{ID: "abl-nb", Title: "Non-blocking Get ablation (Perlmutter, AISD-Ex discrete)", Columns: ablColumns}

	blocking, err := runCached(o, spec)
	if err != nil {
		return nil, err
	}
	nb := spec
	nb.NonBlocking = true
	nbOut, err := runCached(o, nb)
	if err != nil {
		return nil, err
	}
	ablRow(r, "blocking Gets (default)", blocking, blocking.meanThroughput())
	ablRow(r, "overlapped non-blocking Gets", nbOut, blocking.meanThroughput())
	r.AddNote("overlapping the wire time of a batch's Gets is a natural extension of the paper's design (future-work flavor); gains are bounded because loading is already overlapped with GPU compute")
	sp := stats.Speedup([]float64{nbOut.meanThroughput()}, blocking.meanThroughput())
	r.AddNote("measured: non-blocking achieves %.2fx the blocking throughput", sp[0])
	return r, nil
}
