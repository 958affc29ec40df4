package faultnet

import (
	"net"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/transport"
)

// fanOutWorld starts eight single-chunk TCP servers, each owning an eighth
// of the dataset, and returns their addresses. With inj set, every server's
// listener goes through it, so injected faults land at the owners.
func fanOutWorld(t *testing.T, total int, inj *Injector) []string {
	t.Helper()
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
	per := int64(total / 8)
	addrs := make([]string, 0, 8)
	for o := 0; o < 8; o++ {
		lo, hi := int64(o)*per, int64(o+1)*per
		gs := make([]*graph.Graph, 0, hi-lo)
		for id := lo; id < hi; id++ {
			g, err := ds.Sample(id)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		chunk := transport.NewMemChunk(lo, gs)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			ln = inj.Listener(ln)
		}
		srv := transport.ServeListener(ln, chunk, transport.ServerOptions{WriteTimeout: 5 * time.Second})
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

// minLoad loads every batch back to back, reps times, and returns the
// fastest run — the run least disturbed by scheduler noise, which is the
// quantity the latency model predicts.
func minLoad(t *testing.T, grp *transport.Group, reps int, batches ...[]int64) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, ids := range batches {
			got, _, err := loadBatch(grp, ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range got.IDs {
				if id != ids[i] {
					t.Fatalf("slot %d: got sample %d want %d", i, id, ids[i])
				}
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestFanOutOverlapsOwnerLatency is the wall-clock acceptance test for the
// split-phase per-owner fetch: with every I/O operation of every owner
// server stalled a fixed delay, an 8-owner batch must complete in at most
// twice the single-owner round trip — one goroutine has all eight requests
// in flight before it reads a reply — while eight one-owner loads back to
// back pay the round trips one after another. The stall sits at the
// servers, because a slow owner spends its time there: a stall in the
// client's own reads and writes would be paid by the one loading goroutine
// whatever the design.
func TestFanOutOverlapsOwnerLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const total = 64
	const stall = 15 * time.Millisecond
	addrs := fanOutWorld(t, total, New(Scenario{Seed: 7, StallProb: 1, StallFor: stall}))
	grp, err := transport.NewGroupReplicas([][]string{addrs}, transport.GroupOptions{
		Client: transport.ClientOptions{Policy: transport.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			ReadTimeout: 10 * time.Second,
			Seed:        7,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	var allOwners []int64
	var oneEach [][]int64
	for o := 0; o < 8; o++ {
		base := int64(o * total / 8)
		allOwners = append(allOwners, base, base+1)
		oneEach = append(oneEach, []int64{base, base + 1})
	}

	// Warm every connection so first-use costs are out of the measured
	// loads.
	minLoad(t, grp, 1, allOwners)

	t1 := minLoad(t, grp, 3, oneEach[0])
	t8 := minLoad(t, grp, 3, allOwners)
	t8serial := minLoad(t, grp, 3, oneEach...)
	t.Logf("single-owner RT %v, 8-owner load %v, 8 one-owner loads back to back %v", t1, t8, t8serial)

	if t8 > 2*t1 {
		t.Errorf("8-owner load took %v, want <= 2x single-owner RT (%v)", t8, 2*t1)
	}
	if t8serial < 2*t8 {
		t.Errorf("8 one-owner loads took %v, expected back-to-back round trips to cost >= 2x the 8-owner load (%v)", t8serial, 2*t8)
	}
}

// TestFanOutUnderFaults runs the 8-owner fan-out against a hostile mix —
// resets, stalls, partial writes — and requires every Load to still return
// the right samples: the retry/failover machinery must hold when eight
// owner requests are in flight at once. CorruptProb stays 0 here: a dialer-side
// injector corrupts *requests*, which the server rejects with a decode
// error the client rightly treats as non-retryable (a well-formed reply to
// a malformed question); response corruption is covered by the
// listener-side chaos tests.
func TestFanOutUnderFaults(t *testing.T) {
	const total = 64
	addrs := fanOutWorld(t, total, nil)
	inj := New(Scenario{
		Seed:             3,
		ResetProb:        0.02,
		StallProb:        0.05,
		StallFor:         2 * time.Millisecond,
		PartialWriteProb: 0.02,
	})
	gopts := transport.GroupOptions{
		Client: transport.ClientOptions{
			Dialer: inj.Dialer(nil),
			Policy: transport.RetryPolicy{
				MaxAttempts: 6,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
				ReadTimeout: 2 * time.Second,
				Seed:        3,
			},
		},
	}
	grp, err := transport.NewGroupReplicas([][]string{addrs}, gopts)
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()

	ids := make([]int64, 0, 16)
	for o := 0; o < 8; o++ {
		base := int64(o * total / 8)
		ids = append(ids, base, base+1)
	}
	for rep := 0; rep < 10; rep++ {
		got, _, err := loadBatch(grp, ids)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		for i, id := range got.IDs {
			if id != ids[i] {
				t.Fatalf("rep %d slot %d: got sample %d want %d", rep, i, id, ids[i])
			}
		}
	}
	st := inj.Stats()
	if st.Stalls+st.Resets+st.PartialWrites == 0 {
		t.Fatal("fault mix fired nothing; scenario too mild to mean anything")
	}
	t.Logf("faults fired: %+v", st)
}
