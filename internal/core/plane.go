package core

import (
	"fmt"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/comm"
	"ddstore/internal/fetch"
)

// storePlane adapts the Store to the shared fetch engine: owner arithmetic
// over the chunk boundaries, local memory reads, one-sided RMA Gets (plus
// the LockPerSample and NonBlocking ablation variants), and the two-sided
// collective exchange. The engine owns everything else — dedup, cache
// claims, fan-out, follower waits, latency capture.
type storePlane struct {
	s *Store
}

func (p storePlane) OwnerOf(id int64) (int, error) { return p.s.OwnerOf(id) }

func (p storePlane) Local(owner int) bool { return owner == p.s.group.Rank() }

// Issue starts no RMA transfer: it runs whole in Collect, so owners are
// charged to the virtual clock one after another in owner order. On the
// two-sided framework it records the ids the load's exchange asks of a
// remote owner.
func (p storePlane) Issue(pd *fetch.Pending) {
	if s := p.s; s.opts.Framework == FrameworkTwoSided && pd.Owner != s.group.Rank() {
		s.twoSided.ids[pd.Owner] = pd.IDs
	}
}

// Collect runs one owner's transfer. A remote owner read under the
// per-batch shared lock gets one access epoch around its Gets, and the
// lock's cost is charged to the owner's first delivered sample — how a
// per-batch lock amortizes; the epoch closes even when the transfer fails.
// Local reads need no epoch, LockPerSample opens one per sample, and the
// two-sided framework has no window locks at all: its first remote Collect
// waits for the whole group's exchange (see twoSidedLoad). There is no wire
// to carry the pending's trace context — an RMA Get involves no server-side
// CPU — so the engine's own per-owner span is the whole trace of an RMA
// transfer.
func (p storePlane) Collect(pd *fetch.Pending, deliver fetch.Deliver) error {
	s, owner, ids := p.s, pd.Owner, pd.IDs
	switch {
	case owner == s.group.Rank():
		return s.fetchLocal(ids, deliver)
	case s.opts.Framework == FrameworkTwoSided:
		return s.fetchTwoSided(owner, deliver)
	case s.opts.LockPerSample:
		return s.fetchSequential(owner, ids, deliver, 0, true)
	}
	start := clockNow(s.world)
	if err := s.lockSharedRef(owner); err != nil {
		return err
	}
	s.stats.lockAcquires.Add(1)
	cost := clockNow(s.world) - start
	var err error
	if s.opts.NonBlocking {
		err = s.fetchNonBlocking(owner, ids, deliver, cost)
	} else {
		err = s.fetchSequential(owner, ids, deliver, cost, false)
	}
	if uerr := s.unlockSharedRef(owner); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// fetchLocal serves this rank's own chunk: a memory read per sample, no
// communication and no cache involvement. The delivered view borrows the
// window memory directly (nil reference — the window outlives every load),
// so a local sample costs one header validation and zero copies.
func (s *Store) fetchLocal(ids []int64, deliver fetch.Deliver) error {
	owner := s.group.Rank()
	for _, id := range ids {
		before := clockNow(s.world)
		offset, length := s.span(owner, id)
		local := s.buf[offset : offset+length]
		if m := s.world.Machine(); m != nil {
			s.world.Clock().Advance(m.LocalRead(int64(length)))
		}
		if err := deliver(id, local, nil, clockNow(s.world)-before); err != nil {
			return fmt.Errorf("core: decode local sample %d: %w", id, err)
		}
		s.stats.localReads.Add(1)
		s.stats.bytesLocal.Add(int64(length))
	}
	return nil
}

// fetchSequential is the paper's default wire: one blocking Get per sample
// into a pooled buffer whose single reference moves into the delivered view,
// within Collect's shared-lock epoch, whose cost rides on the first
// delivered sample. With perSample — the abl-lock ablation — every Get
// opens and closes an epoch of its own instead, paying the lock each time.
func (s *Store) fetchSequential(owner int, ids []int64, deliver fetch.Deliver, cost time.Duration, perSample bool) error {
	for _, id := range ids {
		before := clockNow(s.world)
		offset, length := s.span(owner, id)
		if perSample {
			if err := s.lockSharedRef(owner); err != nil {
				return err
			}
			s.stats.lockAcquires.Add(1)
		}
		buf := bufarena.Get(length)
		dst := buf.Bytes()
		err := s.win.Get(dst, owner, offset)
		if err != nil {
			err = fmt.Errorf("core: RMA get sample %d from %d: %w", id, owner, err)
		}
		if perSample {
			if uerr := s.unlockSharedRef(owner); err == nil {
				err = uerr
			}
		}
		if err != nil {
			buf.Release()
			return err
		}
		if err := deliver(id, dst, buf, clockNow(s.world)-before+cost); err != nil {
			return fmt.Errorf("core: decode remote sample %d: %w", id, err)
		}
		cost = 0
		s.stats.remoteGets.Add(1)
		s.stats.bytesRemote.Add(int64(length))
	}
	return nil
}

// fetchNonBlocking is the overlapped-Gets ablation (MPI_Rget-style): issue
// everything within the epoch, wait once, and share the overlapped wire
// time evenly across the samples, the epoch's cost on the first. On an
// issue error the already-posted buffers are deliberately NOT released:
// their Gets may still be in flight, and a recycled buffer under a live RMA
// write is a real use-after-free. Unreleased buffers degrade to GC-owned
// memory.
func (s *Store) fetchNonBlocking(owner int, ids []int64, deliver fetch.Deliver, cost time.Duration) error {
	before := clockNow(s.world)
	bufs := make([]*bufarena.Buf, len(ids))
	reqs := make([]*comm.Request, len(ids))
	for i, id := range ids {
		offset, length := s.span(owner, id)
		bufs[i] = bufarena.Get(length)
		req, err := s.win.GetNB(bufs[i].Bytes(), owner, offset)
		if err != nil {
			return fmt.Errorf("core: RMA rget sample %d from %d: %w", id, owner, err)
		}
		reqs[i] = req
		s.stats.remoteGets.Add(1)
		s.stats.bytesRemote.Add(int64(length))
	}
	comm.WaitAll(reqs)
	elapsed := clockNow(s.world) - before
	per := elapsed / time.Duration(len(ids))
	for i, id := range ids {
		if err := deliver(id, bufs[i].Bytes(), bufs[i], per+cost); err != nil {
			return fmt.Errorf("core: decode remote sample %d: %w", id, err)
		}
		cost = 0
	}
	return nil
}
