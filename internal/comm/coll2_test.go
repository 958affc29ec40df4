package comm

import (
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

func TestShareFromRoot(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		var big []int64
		if c.Rank() == 2 {
			big = []int64{10, 20, 30}
		}
		got, err := c.ShareFromRoot(big, 2)
		if err != nil {
			return err
		}
		shared := got.([]int64)
		if len(shared) != 3 || shared[1] != 20 {
			return fmt.Errorf("rank %d got %v", c.Rank(), shared)
		}
		return nil
	})
}

func TestShareFromRootSameBacking(t *testing.T) {
	// The point of ShareFromRoot is zero-copy: every rank must see the
	// root's exact slice (same backing array).
	run(t, 3, nil, func(c *Comm) error {
		var data []byte
		if c.Rank() == 0 {
			data = []byte{1, 2, 3}
		}
		got, err := c.ShareFromRoot(data, 0)
		if err != nil {
			return err
		}
		shared := got.([]byte)
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			data[0] = 99 // visible to everyone: shared, not copied
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if shared[0] != 99 {
			return fmt.Errorf("rank %d got a copy, want shared backing", c.Rank())
		}
		return nil
	})
}

func TestShareFromRootBadRoot(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		if _, err := c.ShareFromRoot(1, 7); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
}
