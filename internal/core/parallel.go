package core

import (
	"sync"
	"sync/atomic"
)

// statsCounters is the loader traffic tally. The fields are atomics so
// concurrent Load callers sharing one store can bump them without a lock;
// Stats() takes a snapshot into the exported struct, keeping the public API
// unchanged.
type statsCounters struct {
	localReads   atomic.Int64
	remoteGets   atomic.Int64
	bytesLocal   atomic.Int64
	bytesRemote  atomic.Int64
	lockAcquires atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		LocalReads:   c.localReads.Load(),
		RemoteGets:   c.remoteGets.Load(),
		BytesLocal:   c.bytesLocal.Load(),
		BytesRemote:  c.bytesRemote.Load(),
		LockAcquires: c.lockAcquires.Load(),
	}
}

// lockSharedRef opens (or joins) a shared access epoch on owner's window.
// comm.Win tracks one epoch per target, so two goroutines Loading from the
// same owner concurrently must share the epoch: the first locker acquires
// the window lock, later ones piggyback on it (MPI shared locks permit
// concurrent readers), and the last unlockSharedRef releases it.
func (s *Store) lockSharedRef(owner int) error {
	s.epochs.mu.Lock()
	defer s.epochs.mu.Unlock()
	if s.epochs.refs == nil {
		s.epochs.refs = map[int]int{}
	}
	if s.epochs.refs[owner] == 0 {
		if err := s.win.LockShared(owner); err != nil {
			return err
		}
	}
	s.epochs.refs[owner]++
	return nil
}

func (s *Store) unlockSharedRef(owner int) error {
	s.epochs.mu.Lock()
	defer s.epochs.mu.Unlock()
	s.epochs.refs[owner]--
	if s.epochs.refs[owner] > 0 {
		return nil
	}
	delete(s.epochs.refs, owner)
	return s.win.Unlock(owner)
}

// epochRefs refcounts the shared-lock epochs per owner.
type epochRefs struct {
	mu   sync.Mutex
	refs map[int]int
}

// Remote samples are fetched into ref-counted buffers from
// internal/bufarena; the old ad-hoc fetchBufPool (which had to guess
// whether a cache flight retained the buffer) is gone. Each fetcher in
// plane.go hands the buffer's single reference to the delivered
// graph.Lazy, and the engine retains additional references for cache
// entries and coalesced waiters.
