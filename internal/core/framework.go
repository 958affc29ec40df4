package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"ddstore/internal/fetch"
	"ddstore/internal/graph"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/wire"
)

// Framework selects the communication design used for remote fetches — the
// paper's 'f' in DS = (c, w, f). The paper evaluated one-sided MPI RMA
// against two-sided/message-broker designs and chose RMA because it
// minimizes the target process's involvement; FrameworkTwoSided implements
// the rejected alternative so the trade-off can be measured (see the
// abl-comm experiment).
//
// A two-sided load is collective over the replica group: every member of
// the group calls it the same number of times, and one rank's loads run one
// at a time. One-sided loads carry neither rule.
type Framework int

const (
	// FrameworkRMA fetches with passive-target one-sided Gets (default).
	FrameworkRMA Framework = iota
	// FrameworkTwoSided fetches with request/response messages: each load
	// is one collective exchange over the replica group, so no fetch
	// completes until every owner's CPU has reached the load and served
	// what it was sent — the owner's CPU participates in every fetch,
	// stealing time from its own training loop.
	FrameworkTwoSided
)

// CounterTwoSidedRPCs counts owner-directed requests on the two-sided
// framework: one per owner a load asks for anything. With multi-get
// batching, a batch touching k owners costs k RPCs, however many samples it
// carries — the counter the batching tests assert on.
const CounterTwoSidedRPCs = "twosided-rpcs"

// missingMarker is the length a reply entry carries for a sample the owner
// does not hold. A request is the ids, 8 bytes each; its reply is one
// [len u32][bytes] entry per id, in request order.
const missingMarker = ^uint32(0)

// twoSidedLoad is one two-sided load's collective exchange. Issue records
// the ids each remote owner is asked for; the first remote Collect runs the
// exchange; LoadLazyTraced runs it with empty requests if the load never
// got that far, so every member enters it exactly once per load.
type twoSidedLoad struct {
	mu      sync.Mutex    // one load at a time
	ids     [][]int64     // per group rank: the ids asked of that owner
	replies [][]byte      // per group rank: that owner's reply
	done    bool          // the exchange has run for this load
	per     time.Duration // each remote sample's share of the exchange
}

// loadTwoSided runs one load on a two-sided store under the store's load
// mutex, then enters the group's exchange if the load did not.
func (s *Store) loadTwoSided(ids []int64, tc tracectx.Context) ([]*graph.Lazy, []time.Duration, error) {
	x := &s.twoSided
	x.mu.Lock()
	defer x.mu.Unlock()
	out, lat, err := s.engine.LoadLazy(ids, tc)
	if !x.done {
		if xerr := s.exchange(); err == nil && xerr != nil {
			for _, v := range out {
				v.Release()
			}
			err = xerr
		}
	}
	clear(x.ids)
	x.replies, x.done, x.per = nil, false, 0
	if err != nil {
		return nil, nil, err
	}
	return out, lat, nil
}

// exchange runs this load's collective: one Alltoallv carries every
// request to its owner, each owner serves what it was sent from its chunk
// and charges the copy to its own clock, and a second Alltoallv carries the
// replies back. The whole exchange, waiting for the slowest owner
// included, is shared evenly by the load's remote samples, as the
// non-blocking Gets share their overlapped wire time.
func (s *Store) exchange() error {
	x := &s.twoSided
	x.done = true
	reqs := make([][]byte, len(x.ids))
	remote := 0
	for owner, ids := range x.ids {
		if len(ids) == 0 {
			continue
		}
		reqs[owner] = wire.AppendIDs(make([]byte, 0, wire.IDsSize(len(ids))), ids)
		remote += len(ids)
		if s.prof != nil {
			s.prof.Inc(CounterTwoSidedRPCs, 1)
		}
	}
	start := clockNow(s.world)
	got, err := s.group.Alltoallv(reqs)
	if err != nil {
		return err
	}
	replies := make([][]byte, len(got))
	var served int64
	for from, req := range got {
		replies[from], served = s.serve(req, served)
	}
	if m := s.world.Machine(); m != nil {
		s.world.Clock().Advance(m.LocalRead(served))
	}
	if x.replies, err = s.group.Alltoallv(replies); err != nil {
		return err
	}
	if remote > 0 {
		x.per = (clockNow(s.world) - start) / time.Duration(remote)
	}
	return nil
}

// serve answers one request from this rank's chunk, adding the sample bytes
// it copies to served.
func (s *Store) serve(req []byte, served int64) ([]byte, int64) {
	var reply []byte
	var lenBuf [4]byte
	for ; len(req) >= 8; req = req[8:] {
		one, err := s.LocalSampleBytes(int64(binary.LittleEndian.Uint64(req)))
		if err != nil {
			binary.LittleEndian.PutUint32(lenBuf[:], missingMarker)
			reply = append(reply, lenBuf[:]...)
			continue
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(one)))
		reply = append(reply, lenBuf[:]...)
		reply = append(reply, one...)
		served += int64(len(one))
	}
	return reply, served
}

// fetchTwoSided delivers the owner's samples from its reply, running the
// load's exchange first if this is the load's first remote Collect. The
// reply slices are ordinary GC-owned memory (nil reference).
func (s *Store) fetchTwoSided(owner int, deliver fetch.Deliver) error {
	x := &s.twoSided
	if !x.done {
		if err := s.exchange(); err != nil {
			return err
		}
	}
	rest := x.replies[owner]
	ids := x.ids[owner]
	for i, id := range ids {
		if len(rest) < 4 {
			return fmt.Errorf("core: truncated response from owner %d (%d of %d samples)", owner, i, len(ids))
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if n == missingMarker {
			return fmt.Errorf("core: owner %d has no sample %d", owner, id)
		}
		if uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("core: owner %d response entry claims %d bytes, %d remain", owner, n, len(rest))
		}
		raw := rest[:n:n]
		rest = rest[n:]
		if err := deliver(id, raw, nil, x.per); err != nil {
			return fmt.Errorf("core: decode sample %d: %w", id, err)
		}
		s.stats.remoteGets.Add(1)
		s.stats.bytesRemote.Add(int64(n))
	}
	return nil
}

// Close releases nothing: a store holds no goroutine or handle beyond its
// memory, so every store may be closed, any number of times, or not at all.
func (s *Store) Close() error { return nil }
