package loadgen

import (
	"context"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

func bootElastic(t *testing.T, owners, n int) *serveboot.Cluster {
	t.Helper()
	c, err := serveboot.BootCluster(serveboot.Config{
		Source: datasets.HomoLumo(datasets.Config{NumGraphs: n}),
		Owners: owners,
		Net: transport.RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
			DialTimeout: time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
			Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestElasticRoutingDrivesCluster: Config.Elastic routes the workers
// through a live shard map instead of per-address clients — every request
// lands on its owner, so a width-1 two-owner cluster serves a full sweep
// with zero errors (per-address routing would miss half the ids).
func TestElasticRoutingDrivesCluster(t *testing.T) {
	c := bootElastic(t, 2, 200)
	res, err := Run(context.Background(), Config{
		Addrs:   c.Addrs(),
		Elastic: true,
		Phases: []Phase{
			{Name: "elastic-closed", Mode: Closed, Workers: 4, MaxRequests: 200, Mix: 0.5, BatchSize: 8,
				Duration: 30 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if ph.Errors != 0 {
		t.Fatalf("elastic sweep saw %d errors, want 0", ph.Errors)
	}
	if ph.Requests != 200 || ph.Samples == 0 || ph.Bytes == 0 {
		t.Fatalf("elastic sweep accounting off: requests=%d samples=%d bytes=%d",
			ph.Requests, ph.Samples, ph.Bytes)
	}
	checkOrdering(t, ph)
}

// TestRunReshardZeroHardErrors is the acceptance drill: a 2-owner cluster
// grows to 3 while the middle phase hammers it, and no phase sees a hard
// error — moved chunks cost the workers stale-generation refreshes at
// worst. The post phase runs against the settled 3-owner topology and its
// steady state stays within the regression bound.
func TestRunReshardZeroHardErrors(t *testing.T) {
	c := bootElastic(t, 2, 240)
	phase := func(name string) Phase {
		return Phase{Name: name, Mode: Closed, Workers: 4, MaxRequests: 300,
			Mix: 0.5, BatchSize: 8, Duration: 30 * time.Second}
	}
	res, err := RunReshard(context.Background(), Config{
		Addrs:   c.Addrs(),
		Elastic: true,
		Phases:  []Phase{phase("pre"), phase("during"), phase("post")},
	}, c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(res.Phases))
	}
	for _, ph := range res.Phases {
		if ph.Errors != 0 {
			t.Fatalf("phase %s saw %d hard errors, want 0", ph.Name, ph.Errors)
		}
		if ph.Samples == 0 {
			t.Fatalf("phase %s moved no samples", ph.Name)
		}
	}
	if res.PreGen != 1 || res.PostGen != 2 {
		t.Fatalf("generation %d -> %d, want 1 -> 2", res.PreGen, res.PostGen)
	}
	if res.MigrationS <= 0 {
		t.Fatalf("migration wall time %.6fs, want > 0", res.MigrationS)
	}
	if got := c.OwnerCount(); got != 3 {
		t.Fatalf("owner count %d after reshard, want 3", got)
	}
}

// TestRunReshardValidation rejects non-elastic configs and wrong phase
// counts before touching the cluster.
func TestRunReshardValidation(t *testing.T) {
	c := bootElastic(t, 2, 50)
	if _, err := RunReshard(context.Background(), Config{
		Addrs:  c.Addrs(),
		Phases: []Phase{{}, {}, {}},
	}, c, 3); err == nil {
		t.Fatal("non-elastic config accepted")
	}
	if _, err := RunReshard(context.Background(), Config{
		Addrs:   c.Addrs(),
		Elastic: true,
		Phases:  []Phase{{Name: "only", Mode: Closed, Workers: 1, MaxRequests: 1}},
	}, c, 3); err == nil {
		t.Fatal("single-phase plan accepted")
	}
}
