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
// with zero errors (per-address routing would miss half the ids), and goes
// on doing so while the cluster grows under it.
func TestElasticRoutingDrivesCluster(t *testing.T) {
	phase := func(name string, requests int64) Phase {
		return Phase{Name: name, Mode: Closed, Workers: 4, MaxRequests: requests,
			Mix: 0.5, BatchSize: 8, Duration: 30 * time.Second}
	}

	t.Run("steady", func(t *testing.T) {
		c := bootElastic(t, 2, 200)
		res, err := Run(context.Background(), Config{
			Addrs:   c.Addrs(),
			Elastic: true,
			Phases:  []Phase{phase("elastic-closed", 200)},
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
	})

	// The acceptance drill: the cluster grows from 2 owners to 3 while the
	// middle phase hammers it, and no phase sees a hard error — moved chunks
	// cost the workers stale-generation refreshes at worst. The last phase
	// waits for the migration, so it runs against the settled topology.
	t.Run("reshard under load", func(t *testing.T) {
		c := bootElastic(t, 2, 240)
		var reshardErr error
		done := make(chan struct{})
		during, post := phase("during", 300), phase("post", 300)
		during.Before = func() {
			go func() {
				defer close(done)
				reshardErr = c.Reshard(3)
			}()
		}
		post.Before = func() { <-done }
		res, err := Run(context.Background(), Config{
			Addrs:   c.Addrs(),
			Elastic: true,
			Phases:  []Phase{phase("pre", 300), during, post},
		})
		if err != nil {
			t.Fatal(err)
		}
		if reshardErr != nil {
			t.Fatalf("reshard to 3 owners: %v", reshardErr)
		}
		if len(res.Phases) != 3 {
			t.Fatalf("got %d phases, want 3", len(res.Phases))
		}
		for _, ph := range res.Phases {
			if ph.Errors != 0 {
				t.Fatalf("phase %s saw %d hard errors, want 0\n%s", ph.Name, ph.Errors, res.Report())
			}
			if ph.Samples == 0 {
				t.Fatalf("phase %s moved no samples", ph.Name)
			}
		}
		if gen := c.Generation(); gen != 2 {
			t.Fatalf("generation %d after one reshard, want 2", gen)
		}
		if got := c.OwnerCount(); got != 3 {
			t.Fatalf("owner count %d after reshard, want 3", got)
		}
	})
}
