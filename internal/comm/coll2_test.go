package comm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ddstore/internal/cluster"
)

func TestGetNBOverlapsTransfers(t *testing.T) {
	m := cluster.Perlmutter()
	w, err := NewWorld(8, 1, WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 1<<20))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		// Blocking path: k sequential gets pay the sum of transfer times.
		if err := win.LockShared(7); err != nil {
			return err
		}
		const k = 8
		blockStart := c.Clock().Now()
		for i := 0; i < k; i++ {
			dst := make([]byte, 1<<18)
			if err := win.Get(dst, 7, 0); err != nil {
				return err
			}
		}
		blocking := c.Clock().Now() - blockStart
		// Non-blocking path: k outstanding gets overlap on the wire.
		nbStart := c.Clock().Now()
		reqs := make([]*Request, 0, k)
		for i := 0; i < k; i++ {
			dst := make([]byte, 1<<18)
			req, err := win.GetNB(dst, 7, 0)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		WaitAll(reqs)
		nb := c.Clock().Now() - nbStart
		if err := win.Unlock(7); err != nil {
			return err
		}
		if nb >= blocking {
			return fmt.Errorf("non-blocking gets (%v) not faster than blocking (%v)", nb, blocking)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetNBDeliversData(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		region := make([]byte, 16)
		for i := range region {
			region[i] = byte(c.Rank()*100 + i)
		}
		win, err := c.CreateWindow(region)
		if err != nil {
			return err
		}
		target := 1 - c.Rank()
		if err := win.LockShared(target); err != nil {
			return err
		}
		dst := make([]byte, 4)
		req, err := win.GetNB(dst, target, 4)
		if err != nil {
			return err
		}
		req.Wait()
		req.Wait() // idempotent
		if err := win.Unlock(target); err != nil {
			return err
		}
		if dst[0] != byte(target*100+4) {
			return fmt.Errorf("GetNB data wrong: %v", dst)
		}
		return nil
	})
}

func TestGetNBRequiresEpoch(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 8))
		if err != nil {
			return err
		}
		if _, err := win.GetNB(make([]byte, 4), 0, 0); err == nil {
			return fmt.Errorf("GetNB outside epoch accepted")
		}
		return nil
	})
}

func BenchmarkBarrier8(b *testing.B) {
	w, err := NewWorld(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = w.Run(func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRMAGet4KB(b *testing.B) {
	w, err := NewWorld(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = w.Run(func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 1<<20))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return c.Barrier()
		}
		if err := win.LockShared(1); err != nil {
			return err
		}
		dst := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := win.Get(dst, 1, (i*4096)%(1<<20-4096)); err != nil {
				return err
			}
		}
		b.StopTimer()
		if err := win.Unlock(1); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduce1MB8Ranks(b *testing.B) {
	w, err := NewWorld(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]float32, 1<<18) // 1 MB
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	err = w.Run(func(c *Comm) error {
		local := make([]float32, len(payload))
		for i := 0; i < b.N; i++ {
			if err := c.AllreduceFloat32(local, OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = time.Now
}

// alltoallPart is what rank from sends rank to in the routing test: empty
// for every third pair, else (from, to) repeated a pair-dependent number of
// times, so lengths vary.
func alltoallPart(from, to int) []byte {
	var p []byte
	for k := 0; k < (from+2*to)%3; k++ {
		p = append(p, byte(from), byte(to))
	}
	return p
}

func TestAlltoallvRoutesEveryPart(t *testing.T) {
	for _, n := range worldSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			run(t, n, nil, func(c *Comm) error {
				parts := make([][]byte, n)
				for to := range parts {
					parts[to] = alltoallPart(c.Rank(), to)
				}
				got, err := c.Alltoallv(parts)
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("rank %d: %d parts back, want %d", c.Rank(), len(got), n)
				}
				// The result must not alias what was sent: every rank
				// scribbles over its parts before anyone checks.
				for _, p := range parts {
					for i := range p {
						p[i] = 0xFF
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for from, p := range got {
					if want := alltoallPart(from, c.Rank()); !bytes.Equal(p, want) {
						return fmt.Errorf("rank %d from %d: got %v want %v", c.Rank(), from, p, want)
					}
				}
				return nil
			})
		})
	}
}

// TestAlltoallvChargesOnce: every rank leaves at the straggler's time plus
// one count exchange and the busiest receiver's transfer, charged once for
// the collective, not once per rank or per empty part.
func TestAlltoallvChargesOnce(t *testing.T) {
	m := cluster.Summit() // 6 GPUs per node: rank 7 is on node 1
	w, err := NewWorld(8, 1, WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 3 {
			c.Clock().Advance(5 * time.Millisecond)
		}
		parts := make([][]byte, c.Size())
		if c.Rank() == 0 {
			parts[7] = make([]byte, size)
		}
		if _, err := c.Alltoallv(parts); err != nil {
			return err
		}
		want := 5*time.Millisecond + m.CollectiveLatency(8) + m.NetTransfer(size, false)
		if got := c.Clock().Now(); got != want {
			return fmt.Errorf("rank %d clock %v, want %v", c.Rank(), got, want)
		}
		// All parts empty: only the count exchange.
		if _, err := c.Alltoallv(make([][]byte, c.Size())); err != nil {
			return err
		}
		if got := c.Clock().Now(); got != want+m.CollectiveLatency(8) {
			return fmt.Errorf("rank %d empty exchange left clock at %v, want %v", c.Rank(), got, want+m.CollectiveLatency(8))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvLengthMismatch(t *testing.T) {
	w, err := NewWorld(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		parts := make([][]byte, c.Size())
		if c.Rank() == 0 {
			parts = append(parts, nil)
		}
		_, err := c.Alltoallv(parts)
		return err
	})
	if err == nil || errors.Is(err, ErrWorldBroken) {
		t.Fatalf("Run error = %v, want the length mismatch", err)
	}
}

func TestAlltoallvSingleRank(t *testing.T) {
	run(t, 1, []Option{WithMachine(cluster.Perlmutter())}, func(c *Comm) error {
		mine := []byte{4, 2}
		got, err := c.Alltoallv([][]byte{mine})
		if err != nil {
			return err
		}
		mine[0] = 9
		if len(got) != 1 || !bytes.Equal(got[0], []byte{4, 2}) {
			return fmt.Errorf("got %v, want a copy of [4 2]", got)
		}
		if now := c.Clock().Now(); now != 0 {
			return fmt.Errorf("single-rank Alltoallv charged %v", now)
		}
		return nil
	})
}
