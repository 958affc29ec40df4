package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/graph"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

// TestFaultMixReportsRetriesAndStallLatency runs the load generator
// against a serve instance wrapped in faultnet stalls and resets, and
// checks the harness reports — rather than hides — the damage: retry and
// reconnect counts surface in the phase result, every issued request is
// accounted for as success or error, and the p99 latency reflects the
// injected 15ms stalls.
func TestFaultMixReportsRetriesAndStallLatency(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	inst, err := serveboot.Boot(serveboot.Config{
		Source: ds, Lo: 0, Hi: 200,
		WriteTimeout: 5 * time.Second,
		Chaos: &faultnet.Scenario{
			Seed:      99,
			StallProb: 0.3, StallFor: 15 * time.Millisecond,
			ResetProb: 0.02,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const reqs = 300
	res, err := Run(context.Background(), Config{
		Addrs: []string{inst.Addr()},
		Seed:  5,
		Phases: []Phase{
			{Name: "faulty-closed", Mode: Closed, Workers: 4, MaxRequests: reqs, Mix: 0.2, BatchSize: 4},
		},
		Policy: transport.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]

	// Accounting must be exact under faults: every ticket ends as a
	// success latency sample or a counted error — nothing vanishes.
	if ph.Requests != reqs {
		t.Errorf("requests=%d, want exactly %d (successes+errors)", ph.Requests, reqs)
	}
	// Injected connection resets force client retries/reconnects; a
	// harness that swallowed them would report zero here.
	if ph.Retries == 0 {
		t.Errorf("retries=0 under %g reset probability; the harness is hiding transport retries", 0.02)
	}
	if ph.Reconnects == 0 {
		t.Errorf("reconnects=0 under injected resets")
	}
	// 30% stall probability per I/O op means well over 1% of requests eat
	// at least one 15ms stall: p99 must sit at or above the stall.
	if ph.P99ms < 15 {
		t.Errorf("p99=%.3fms under injected 15ms stalls, want >= 15ms", ph.P99ms)
	}
	checkOrdering(t, ph)

	// The injector itself must have fired, or the assertions above prove
	// nothing about fault reporting.
	st, ok := inst.FaultStats()
	if !ok {
		t.Fatal("instance reports no injector")
	}
	if st.Stalls == 0 {
		t.Errorf("injector stalled nothing (stats %+v); raise MaxRequests or StallProb", st)
	}
}

// TestFaultGiveUpsSurfaceAsErrors drives a server so hostile that some
// requests exhaust every retry, and checks those surface as phase errors
// and give-ups instead of disappearing.
func TestFaultGiveUpsSurfaceAsErrors(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 100})
	inst, err := serveboot.Boot(serveboot.Config{
		Source: ds, Lo: 0, Hi: 100,
		Chaos: &faultnet.Scenario{Seed: 3, ResetProb: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const reqs = 120
	res, err := Run(context.Background(), Config{
		Addrs: []string{inst.Addr()},
		// Explicit range: with 50% resets even the shard map discovery probe
		// would be a coin flip.
		Lo: 0, Hi: 100,
		Phases: []Phase{
			{Name: "hostile", Mode: Closed, Workers: 4, MaxRequests: reqs},
		},
		Policy: transport.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if ph.Requests != reqs {
		t.Errorf("requests=%d, want exactly %d", ph.Requests, reqs)
	}
	if ph.Errors == 0 {
		t.Errorf("errors=0 with 50%% resets and 2 attempts; failures are being hidden")
	}
	if ph.GiveUps == 0 {
		t.Errorf("giveups=0 with errors=%d; counter plumbing is broken", ph.Errors)
	}
	if ph.Errors+int64(0) > 0 && ph.AchievedQPS < 0 {
		t.Errorf("achieved QPS went negative")
	}
}

// offByOne answers id k with sample k+1's bytes: well-formed, CRC-clean,
// and wrong.
type offByOne struct{ *transport.MemChunk }

func (o offByOne) LocalSampleBytes(id int64) ([]byte, error) {
	return o.MemChunk.LocalSampleBytes(o.Lo + (id-o.Lo+1)%(o.Hi-o.Lo))
}

// TestWrongSampleCountsAsError: the frame CRC covers bytes in flight, not
// whether the server answered the question. The generator decodes every
// sample's header and compares its id with the one it asked for, on the
// single-get and the batch path alike, so "errors == 0" in a smoke also
// means "no wrong sample" — and the first mismatch is reported verbatim.
func TestWrongSampleCountsAsError(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 64})
	graphs := make([]*graph.Graph, ds.Len())
	for i := range graphs {
		g, err := ds.ReadSample(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	srv, err := transport.Serve("127.0.0.1:0", offByOne{transport.NewMemChunk(0, graphs)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, mix := range []float64{0, 1} {
		res, err := Run(context.Background(), Config{
			Addrs:  []string{srv.Addr()},
			Phases: []Phase{{Name: "wrong", Mode: Closed, Workers: 2, MaxRequests: 40, Mix: mix, BatchSize: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ph := res.Phases[0]
		if ph.Requests != 40 || ph.Errors != ph.Requests {
			t.Errorf("mix %g: %d errors of %d requests against a server that answers every id with its neighbour", mix, ph.Errors, ph.Requests)
		}
		if ph.Samples != 0 || ph.Bytes != 0 {
			t.Errorf("mix %g: %d samples / %d bytes counted as served", mix, ph.Samples, ph.Bytes)
		}
		if rep := res.Report().String(); !strings.Contains(rep, "server answered with sample") {
			t.Errorf("mix %g: report does not print the first wrong sample:\n%s", mix, rep)
		}
	}
}
