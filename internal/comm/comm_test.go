package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ddstore/internal/cluster"
)

// run executes fn over a fresh world of n ranks and fails the test on error.
func run(t *testing.T, n int, opts []Option, fn func(c *Comm) error) {
	t.Helper()
	w, err := NewWorld(n, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

var worldSizes = []int{1, 2, 3, 4, 7, 16}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewWorld(n, 1); err == nil {
			t.Errorf("NewWorld(%d) succeeded", n)
		}
	}
}

func TestRankAndSize(t *testing.T) {
	for _, n := range worldSizes {
		var seen atomic.Int64
		run(t, n, nil, func(c *Comm) error {
			if c.Size() != n {
				return fmt.Errorf("Size = %d, want %d", c.Size(), n)
			}
			if c.Rank() < 0 || c.Rank() >= n {
				return fmt.Errorf("Rank %d out of range", c.Rank())
			}
			seen.Add(1 << uint(c.Rank()))
			return nil
		})
		if seen.Load() != (1<<uint(n))-1 {
			t.Fatalf("n=%d: not every rank ran: bitmask %b", n, seen.Load())
		}
	}
}

func TestBarrier(t *testing.T) {
	// Ensure no rank exits the barrier before every rank has entered it.
	for _, n := range worldSizes {
		var entered atomic.Int32
		run(t, n, nil, func(c *Comm) error {
			entered.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := entered.Load(); got != int32(n) {
				return fmt.Errorf("rank %d passed barrier with only %d/%d entered", c.Rank(), got, n)
			}
			return nil
		})
	}
}

func TestBarrierReusable(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range worldSizes {
		run(t, n, nil, func(c *Comm) error {
			in := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			out, err := c.Allreduce(in, OpSum)
			if err != nil {
				return err
			}
			var wantSum, wantSq float64
			for r := 0; r < n; r++ {
				wantSum += float64(r)
				wantSq += float64(r * r)
			}
			if out[0] != wantSum || out[1] != float64(n) || out[2] != wantSq {
				return fmt.Errorf("rank %d: Allreduce = %v", c.Rank(), out)
			}
			return nil
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	run(t, 6, nil, func(c *Comm) error {
		in := []float64{float64(c.Rank())}
		mx, err := c.Allreduce(in, OpMax)
		if err != nil {
			return err
		}
		mn, err := c.Allreduce(in, OpMin)
		if err != nil {
			return err
		}
		if mx[0] != 5 || mn[0] != 0 {
			return fmt.Errorf("max=%v min=%v", mx[0], mn[0])
		}
		return nil
	})
}

func TestAllreduceFloat32InPlace(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		grad := []float32{float32(c.Rank() + 1), 2}
		if err := c.AllreduceFloat32(grad, OpSum); err != nil {
			return err
		}
		if grad[0] != 1+2+3+4 || grad[1] != 8 {
			return fmt.Errorf("rank %d: grad = %v", c.Rank(), grad)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	for _, n := range worldSizes {
		run(t, n, nil, func(c *Comm) error {
			mine := []uint32{uint32(c.Rank()), uint32(c.Rank() + 1)}
			all, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			if len(all) != n {
				return fmt.Errorf("got %d pieces", len(all))
			}
			for r, piece := range all {
				if !slices.Equal(piece, []uint32{uint32(r), uint32(r + 1)}) {
					return fmt.Errorf("piece %d = %v", r, piece)
				}
			}
			return nil
		})
	}
}

func TestAllgathervVariableLengths(t *testing.T) {
	run(t, 5, nil, func(c *Comm) error {
		mine := make([]uint32, c.Rank()) // rank r sends r elements
		for i := range mine {
			mine[i] = uint32(c.Rank())
		}
		all, err := c.Allgather(mine)
		if err != nil {
			return err
		}
		for r, piece := range all {
			if len(piece) != r {
				return fmt.Errorf("piece %d has %d elements", r, len(piece))
			}
			for _, v := range piece {
				if v != uint32(r) {
					return fmt.Errorf("piece %d contains %d", r, v)
				}
			}
		}
		return nil
	})
}

// TestAllgatherSharesContributions pins the gather's sharing rule: rank
// r's slot on every rank is rank r's own slice, not a copy, and its
// capacity is clipped to its length, so an append on a received slot
// copies and leaves rank r's slice as it was.
func TestAllgatherSharesContributions(t *testing.T) {
	const n = 3
	var sent [n][]uint32
	run(t, n, nil, func(c *Comm) error {
		// Spare capacity a received slot must not expose.
		mine := append(make([]uint32, 0, 8), uint32(c.Rank()), uint32(10+c.Rank()))
		sent[c.Rank()] = mine
		all, err := c.Allgather(mine)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil { // every rank has deposited
			return err
		}
		for r, piece := range all {
			if unsafe.SliceData(piece) != unsafe.SliceData(sent[r]) {
				return fmt.Errorf("rank %d got a copy of rank %d's slice", c.Rank(), r)
			}
			if cap(piece) != len(piece) {
				return fmt.Errorf("rank %d's slot %d has cap %d for len %d", c.Rank(), r, cap(piece), len(piece))
			}
			_ = append(piece, 99)
		}
		if err := c.Barrier(); err != nil { // every rank has appended
			return err
		}
		if got := sent[c.Rank()][:cap(mine)][len(mine)]; got != 0 {
			return fmt.Errorf("an append on a received slot wrote %d past rank %d's slice", got, c.Rank())
		}
		return nil
	})
}

// TestAllgatherChargeIgnoresArrivalOrder: in a two-rank world under a
// machine model, rank 1 gathers 8 MiB and rank 0 nothing, and the
// collective must charge the same time whichever rank arrives last. Each
// order is forced by holding one rank back until the other waits at the
// collective's barrier.
func TestAllgatherChargeIgnoresArrivalOrder(t *testing.T) {
	var clocks [2]time.Duration
	for last := range clocks {
		run(t, 2, []Option{WithMachine(cluster.Perlmutter())}, func(c *Comm) error {
			var mine []uint32
			if c.Rank() == 1 {
				mine = make([]uint32, 2<<20) // 8 MiB
			}
			if c.Rank() == last {
				waitAtBarrier(c, 1)
			}
			if _, err := c.Allgather(mine); err != nil {
				return err
			}
			if c.Rank() == 0 {
				clocks[last] = c.Clock().Now()
			}
			return nil
		})
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("Allgather charged %v with rank 0 last and %v with rank 1 last", clocks[0], clocks[1])
	}
}

// waitAtBarrier returns once n ranks of c's communicator wait at its
// collective barrier.
func waitAtBarrier(c *Comm, n int) {
	b := c.state.barrier
	for {
		b.mu.Lock()
		count := b.count
		b.mu.Unlock()
		if count == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSplitReplicaGroups(t *testing.T) {
	// The DDStore width pattern: N=8, w=4 => 2 groups of 4.
	const n, w = 8, 4
	run(t, n, nil, func(c *Comm) error {
		color := c.Rank() / w
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != w {
			return fmt.Errorf("group size = %d", sub.Size())
		}
		if want := c.Rank() % w; sub.Rank() != want {
			return fmt.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		// Group-local collectives work and stay group-local.
		sum, err := sub.Allreduce([]float64{float64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		var want float64
		for r := color * w; r < (color+1)*w; r++ {
			want += float64(r)
		}
		if sum[0] != want {
			return fmt.Errorf("group sum = %v, want %v", sum[0], want)
		}
		return nil
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		// Reverse the order with the key.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if want := 3 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		color := 0
		if c.Rank() >= 2 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() >= 2 {
			if sub != nil {
				return fmt.Errorf("undefined color produced a communicator")
			}
			return nil
		}
		if sub.Size() != 2 {
			return fmt.Errorf("group size = %d", sub.Size())
		}
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	run(t, 8, nil, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("nested group size = %d", quarter.Size())
		}
		sum, err := quarter.Allreduce([]float64{1}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 2 {
			return fmt.Errorf("nested group sum = %v", sum[0])
		}
		return nil
	})
}

func TestRunPropagatesError(t *testing.T) {
	w, err := NewWorld(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		return c.Barrier() // would deadlock if the world were not broken
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
}

func TestRunRecoversPanicsWithoutDeadlock(t *testing.T) {
	w, err := NewWorld(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			if c.Rank() == 2 {
				panic("kaboom")
			}
			return c.Barrier() // blocks until the panic breaks the world
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after a rank panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after a rank panic")
	}
}

func TestVirtualClockBarrierSync(t *testing.T) {
	w, err := NewWorld(3, 1, WithMachine(cluster.Perlmutter()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		// Rank 2 is the straggler.
		c.Clock().Advance(time.Duration(c.Rank()) * 10 * time.Millisecond)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := c.Clock().Now(); got < 20*time.Millisecond {
			return fmt.Errorf("rank %d clock %v did not wait for straggler", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxTime() < 20*time.Millisecond {
		t.Fatalf("world MaxTime = %v", w.MaxTime())
	}
}

func TestVirtualClockAllreduceCost(t *testing.T) {
	m := cluster.Summit()
	w, err := NewWorld(4, 1, WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]float64, 1<<16)
	err = w.Run(func(c *Comm) error {
		before := c.Clock().Now()
		if _, err := c.Allreduce(payload, OpSum); err != nil {
			return err
		}
		cost := c.Clock().Now() - before
		want := m.Allreduce(int64(len(payload)*8), 4)
		if cost < want {
			return fmt.Errorf("allreduce charged %v, want >= %v", cost, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	runOnce := func() time.Duration {
		w, err := NewWorld(6, 9, WithMachine(cluster.Perlmutter()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			for i := 0; i < 5; i++ {
				c.Clock().Advance(c.Machine().FSRead(4096, 6, true, c.RNG()))
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestSingleRankWorldCollectives(t *testing.T) {
	// All collectives must degrade gracefully to no-ops at n=1.
	run(t, 1, nil, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		out, err := c.Allreduce([]float64{7}, OpSum)
		if err != nil || out[0] != 7 {
			return fmt.Errorf("allreduce: %v %v", out, err)
		}
		all, err := c.Allgather([]uint32{1, 2})
		if err != nil || len(all) != 1 || all[0][1] != 2 {
			return fmt.Errorf("allgather: %v %v", all, err)
		}
		sub, err := c.Split(0, 0)
		if err != nil || sub.Size() != 1 {
			return fmt.Errorf("split: %v", err)
		}
		win, err := c.CreateWindow([]byte{42})
		if err != nil {
			return err
		}
		if err := win.LockShared(0); err != nil {
			return err
		}
		dst := make([]byte, 1)
		if err := win.Get(dst, 0, 0); err != nil || dst[0] != 42 {
			return fmt.Errorf("self-get: %v %v", dst, err)
		}
		return win.Unlock(0)
	})
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: across a mixed workload, no rank's clock ever goes
	// backwards between observations.
	w, err := NewWorld(4, 5, WithMachine(cluster.Laptop()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		prev := c.Clock().Now()
		check := func() error {
			now := c.Clock().Now()
			if now < prev {
				return fmt.Errorf("clock went backwards: %v -> %v", prev, now)
			}
			prev = now
			return nil
		}
		win, err := c.CreateWindow(make([]byte, 256))
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := check(); err != nil {
				return err
			}
			target := (c.Rank() + 1 + i) % c.Size()
			if err := win.LockShared(target); err != nil {
				return err
			}
			dst := make([]byte, 16)
			if err := win.Get(dst, target, i%200); err != nil {
				return err
			}
			if err := win.Unlock(target); err != nil {
				return err
			}
			if err := check(); err != nil {
				return err
			}
			if _, err := c.Allreduce([]float64{float64(i)}, OpSum); err != nil {
				return err
			}
			if err := check(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
