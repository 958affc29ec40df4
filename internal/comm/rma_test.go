package comm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ddstore/internal/cluster"
)

func TestWindowGetBasic(t *testing.T) {
	run(t, 4, nil, func(c *Comm) error {
		region := bytes.Repeat([]byte{byte(c.Rank())}, 64)
		win, err := c.CreateWindow(region)
		if err != nil {
			return err
		}
		for target := 0; target < c.Size(); target++ {
			if err := win.LockShared(target); err != nil {
				return err
			}
			dst := make([]byte, 16)
			if err := win.Get(dst, target, 8); err != nil {
				return err
			}
			if err := win.Unlock(target); err != nil {
				return err
			}
			for _, b := range dst {
				if b != byte(target) {
					return fmt.Errorf("got %d from target %d", b, target)
				}
			}
		}
		return c.Barrier()
	})
}

func TestWindowVariableRegionSizes(t *testing.T) {
	run(t, 3, nil, func(c *Comm) error {
		region := make([]byte, (c.Rank()+1)*10)
		for i := range region {
			region[i] = byte(c.Rank()*50 + i)
		}
		win, err := c.CreateWindow(region)
		if err != nil {
			return err
		}
		// Each target's region is exactly as long as its rank exposed: a
		// read of the whole of it succeeds, one byte more is out of bounds.
		for target := 0; target < 3; target++ {
			size := (target + 1) * 10
			if err := win.LockShared(target); err != nil {
				return err
			}
			if err := win.Get(make([]byte, size), target, 0); err != nil {
				return fmt.Errorf("target %d: whole-region read: %v", target, err)
			}
			if err := win.Get(make([]byte, size+1), target, 0); err == nil {
				return fmt.Errorf("target %d: read past its %d-byte region succeeded", target, size)
			}
			if err := win.Unlock(target); err != nil {
				return err
			}
		}
		if err := win.LockShared(2); err != nil {
			return err
		}
		dst := make([]byte, 30)
		if err := win.Get(dst, 2, 0); err != nil {
			return err
		}
		if dst[29] != byte(2*50+29) {
			return fmt.Errorf("last byte = %d", dst[29])
		}
		return win.Unlock(2)
	})
}

func TestWindowGetRequiresEpoch(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := win.Get(make([]byte, 4), 0, 0); err == nil {
			return errors.New("Get outside an access epoch succeeded")
		}
		return c.Barrier()
	})
}

func TestWindowBoundsChecking(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := win.LockShared(0); err != nil {
			return err
		}
		defer win.Unlock(0)
		if err := win.Get(make([]byte, 4), 0, 6); err == nil {
			return errors.New("out-of-bounds Get succeeded")
		}
		if err := win.Get(make([]byte, 4), 0, -1); err == nil {
			return errors.New("negative-offset Get succeeded")
		}
		if err := win.Get(make([]byte, 4), 9, 0); err == nil {
			return errors.New("bad-target Get succeeded")
		}
		return nil
	})
}

func TestWindowDoubleLockRejected(t *testing.T) {
	run(t, 2, nil, func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := win.LockShared(0); err != nil {
			return err
		}
		if err := win.LockShared(0); err == nil {
			return errors.New("double lock succeeded")
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		if err := win.Unlock(0); err == nil {
			return errors.New("double unlock succeeded")
		}
		return nil
	})
}

func TestWindowConcurrentSharedReaders(t *testing.T) {
	// All ranks read the same target under shared locks simultaneously —
	// the access pattern DDStore's batch loader generates.
	const n = 8
	run(t, n, nil, func(c *Comm) error {
		region := bytes.Repeat([]byte{7}, 1024)
		win, err := c.CreateWindow(region)
		if err != nil {
			return err
		}
		if err := win.LockShared(0); err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			dst := make([]byte, 32)
			if err := win.Get(dst, 0, (i*7)%990); err != nil {
				return err
			}
			if dst[0] != 7 {
				return fmt.Errorf("corrupt read %d", dst[0])
			}
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		return c.Barrier()
	})
}

func TestMultipleWindows(t *testing.T) {
	run(t, 3, nil, func(c *Comm) error {
		w1, err := c.CreateWindow([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		w2, err := c.CreateWindow([]byte{byte(c.Rank() + 100)})
		if err != nil {
			return err
		}
		dst := make([]byte, 1)
		if err := w1.LockShared(1); err != nil {
			return err
		}
		if err := w1.Get(dst, 1, 0); err != nil {
			return err
		}
		if err := w1.Unlock(1); err != nil {
			return err
		}
		if dst[0] != 1 {
			return fmt.Errorf("w1 read %d", dst[0])
		}
		if err := w2.LockShared(2); err != nil {
			return err
		}
		if err := w2.Get(dst, 2, 0); err != nil {
			return err
		}
		if err := w2.Unlock(2); err != nil {
			return err
		}
		if dst[0] != 102 {
			return fmt.Errorf("w2 read %d", dst[0])
		}
		return nil
	})
}

func TestWindowOnSubcommunicator(t *testing.T) {
	// Windows created on a width-w replica group must be scoped to the
	// group: target indices are group ranks.
	run(t, 8, nil, func(c *Comm) error {
		sub, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		win, err := sub.CreateWindow([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		// Group rank 3 of each group is world rank color*4+3.
		if err := win.LockShared(3); err != nil {
			return err
		}
		dst := make([]byte, 1)
		if err := win.Get(dst, 3, 0); err != nil {
			return err
		}
		if err := win.Unlock(3); err != nil {
			return err
		}
		if want := byte((c.Rank()/4)*4 + 3); dst[0] != want {
			return fmt.Errorf("cross-group leak: got %d want %d", dst[0], want)
		}
		return nil
	})
}

func TestRMAChargesCallerOnly(t *testing.T) {
	m := cluster.Perlmutter()
	w, err := NewWorld(8, 1, WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	var targetAfter time.Duration
	var mu sync.Mutex
	err = w.Run(func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 4096))
		if err != nil {
			return err
		}
		base := c.Clock().Now()
		if err := c.Barrier(); err != nil {
			return err
		}
		base = c.Clock().Now()
		if c.Rank() == 0 {
			// Rank 0 fetches from rank 7 (different node on Perlmutter).
			if err := win.LockShared(7); err != nil {
				return err
			}
			dst := make([]byte, 4096)
			if err := win.Get(dst, 7, 0); err != nil {
				return err
			}
			if err := win.Unlock(7); err != nil {
				return err
			}
			charged := c.Clock().Now() - base
			want := m.RMALock(false) + m.RMATransfer(4096, false)
			if charged < want {
				return fmt.Errorf("caller charged %v, want >= %v", charged, want)
			}
		}
		if c.Rank() == 7 {
			mu.Lock()
			targetAfter = c.Clock().Now() - base
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targetAfter != 0 {
		t.Fatalf("one-sided Get charged the target %v", targetAfter)
	}
}

func TestRMAIntraNodeCheaperThanInter(t *testing.T) {
	m := cluster.Perlmutter() // 4 GPUs/node: ranks 0-3 node 0, 4-7 node 1
	w, err := NewWorld(8, 1, WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		win, err := c.CreateWindow(make([]byte, 1024))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		fetch := func(target int) (time.Duration, error) {
			before := c.Clock().Now()
			if err := win.LockShared(target); err != nil {
				return 0, err
			}
			dst := make([]byte, 1024)
			if err := win.Get(dst, target, 0); err != nil {
				return 0, err
			}
			if err := win.Unlock(target); err != nil {
				return 0, err
			}
			return c.Clock().Now() - before, nil
		}
		intra, err := fetch(1)
		if err != nil {
			return err
		}
		inter, err := fetch(7)
		if err != nil {
			return err
		}
		if intra >= inter {
			return fmt.Errorf("intra-node fetch (%v) not cheaper than inter-node (%v)", intra, inter)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
