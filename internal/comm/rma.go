package comm

import (
	"fmt"
	"time"
)

// Win is one rank's handle on a read-only RMA window (MPI_Win). Every member
// rank exposes its region once, at CreateWindow, and nothing writes it
// afterwards: DDStore preloads each chunk before its window exists, and
// peers only read. The regions are the ranks' actual buffers (shared
// address space), so a Get is a true zero-intermediary copy, like MPI RMA
// over shared memory or RDMA. Access to a target requires an access epoch:
// LockShared, then Get, then Unlock — the passive-target discipline DDStore
// uses (MPI_Win_lock(MPI_LOCK_SHARED) ... MPI_Get ... MPI_Win_unlock).
// Since no rank writes a region, a shared epoch has no one to exclude: it is
// this handle's bookkeeping plus the lock's modeled cost.
type Win struct {
	comm    *Comm
	regions [][]byte // every member's region, shared by the group's handles
	held    []bool   // per target: this handle has an open epoch on it
}

// CreateWindow collectively registers region as this rank's exposed memory
// and returns the window handle (MPI_Win_create). Every rank of the
// communicator must call it; regions may have different lengths.
func (c *Comm) CreateWindow(region []byte) (*Win, error) {
	st := c.state
	st.slots[c.idx] = region
	err := st.barrier.await(func() {
		regions := make([][]byte, len(st.slots))
		for i, s := range st.slots {
			if s != nil {
				regions[i] = s.([]byte)
			}
		}
		st.wins[st.winSeq] = regions
		st.winSeq++
		if c.world.machine != nil {
			var max time.Duration
			for _, cl := range c.groupClocks() {
				if t := cl.Now(); t > max {
					max = t
				}
			}
			st.syncTo = max + c.world.machine.CollectiveLatency(c.Size())
		}
	})
	if err != nil {
		return nil, err
	}
	if c.world.machine != nil {
		c.Clock().AdvanceTo(st.syncTo)
	}
	regions := st.wins[st.winSeq-1]
	if err := st.barrier.await(nil); err != nil {
		return nil, err
	}
	return &Win{comm: c, regions: regions, held: make([]bool, c.Size())}, nil
}

// LockShared opens a shared access epoch on target
// (MPI_Win_lock(MPI_LOCK_SHARED)). Any number of ranks may hold shared locks
// on the same target concurrently.
func (w *Win) LockShared(target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	if w.held[target] {
		return fmt.Errorf("comm: window lock on target %d already held", target)
	}
	w.held[target] = true
	if m := w.comm.Machine(); m != nil {
		cost := time.Duration(float64(m.RMALock(w.comm.SameNode(target))) * m.JitterFactor(w.comm.RNG()))
		w.comm.Clock().Advance(cost)
	}
	return nil
}

// Unlock closes the access epoch on target (MPI_Win_unlock). Like MPI, the
// unlock completes all outstanding operations of the epoch; our Gets are
// synchronous so only the epoch bookkeeping remains.
func (w *Win) Unlock(target int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	if !w.held[target] {
		return fmt.Errorf("comm: window lock on target %d not held", target)
	}
	w.held[target] = false
	return nil
}

// Get copies len(dst) bytes from target's region starting at offset into dst
// (MPI_Get). The caller must hold a lock on target. The modeled transfer
// cost is charged to the caller only — the essence of one-sided
// communication: the target's CPU is not involved.
func (w *Win) Get(dst []byte, target int, offset int) error {
	if err := w.checkAccess(target, offset, len(dst)); err != nil {
		return err
	}
	copy(dst, w.regions[target][offset:offset+len(dst)])
	if m := w.comm.Machine(); m != nil {
		cost := time.Duration(float64(m.RMATransfer(int64(len(dst)), w.comm.SameNode(target))) * m.JitterFactor(w.comm.RNG()))
		w.comm.Clock().Advance(cost)
	}
	return nil
}

func (w *Win) checkTarget(target int) error {
	if target < 0 || target >= len(w.regions) {
		return fmt.Errorf("comm: window target %d out of range [0,%d)", target, len(w.regions))
	}
	return nil
}

// checkAccess validates the epoch and bounds for an RMA read.
func (w *Win) checkAccess(target, offset, length int) error {
	if err := w.checkTarget(target); err != nil {
		return err
	}
	if !w.held[target] {
		return fmt.Errorf("comm: RMA access to target %d outside an access epoch (call LockShared first)", target)
	}
	if offset < 0 || length < 0 || offset+length > len(w.regions[target]) {
		return fmt.Errorf("comm: RMA access [%d,%d) out of bounds of target %d's %d-byte region",
			offset, offset+length, target, len(w.regions[target]))
	}
	return nil
}
