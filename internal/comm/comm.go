// Package comm implements an MPI-like message-passing runtime for DDStore.
//
// A World of N ranks runs as N goroutines inside one process. The package
// provides the MPI features DDStore depends on: communicators with the
// collectives it calls (Barrier, Allreduce, a zero-copy Allgather of
// variable-length contributions and a personalized all-to-all exchange
// (MPI_Alltoallv)), communicator splitting (MPI_Comm_split,
// used to form the width-w replica groups), and read-only one-sided RMA
// windows with passive-target synchronization (MPI_Win_create /
// MPI_Win_lock(SHARED) / MPI_Get / MPI_Rget / MPI_Win_unlock).
//
// When the World is created with a cluster.Machine, every operation also
// charges its modeled cost to per-rank virtual clocks (see internal/vtime),
// and synchronizing operations align the clocks of the participants. This is
// how the at-scale experiments reproduce the paper's timing behaviour while
// executing the real DDStore code. Without a machine, the runtime is purely
// functional (and is still useful: the unit tests and the TCP transport use
// it that way).
package comm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ddstore/internal/cluster"
	"ddstore/internal/vtime"
)

// ErrWorldBroken is returned by ranks that were released from a blocked
// operation because another rank panicked or failed.
var ErrWorldBroken = errors.New("comm: world broken by another rank's failure")

// World is a set of ranks executing together.
type World struct {
	size    int
	machine *cluster.Machine
	clocks  []*vtime.Clock
	rngs    []*vtime.RNG

	mu     sync.Mutex
	groups map[string]*groupState // collective state per communicator
	broken bool
}

// Option configures a World.
type Option func(*World)

// WithMachine attaches a machine model: operations charge modeled costs to
// the per-rank virtual clocks.
func WithMachine(m *cluster.Machine) Option {
	return func(w *World) { w.machine = m }
}

// NewWorld creates a world of size ranks. seed drives all per-rank RNGs.
func NewWorld(size int, seed uint64, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: world size %d must be positive", size)
	}
	w := &World{
		size:   size,
		groups: make(map[string]*groupState),
		clocks: make([]*vtime.Clock, size),
		rngs:   make([]*vtime.RNG, size),
	}
	root := vtime.NewRNG(seed)
	for i := 0; i < size; i++ {
		w.clocks[i] = &vtime.Clock{}
		w.rngs[i] = root.Split(uint64(i))
	}
	for _, o := range opts {
		o(w)
	}
	return w, nil
}

// MaxTime returns the latest virtual time across all ranks — the modeled
// end-to-end wall time of whatever the world has executed so far.
func (w *World) MaxTime() time.Duration { return vtime.MaxClock(w.clocks) }

// Run executes fn concurrently on every rank and waits for completion. It
// returns the first error (by rank order) if any rank failed. A panic in one
// rank is converted to an error and breaks the world so that the other ranks
// do not deadlock in collectives.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					w.breakWorld()
				}
			}()
			errs[rank] = fn(w.commFor(rank))
			if errs[rank] != nil && !errors.Is(errs[rank], ErrWorldBroken) {
				w.breakWorld()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrWorldBroken) {
			return err
		}
	}
	// Only broken-world errors (shouldn't happen without a root cause, but
	// report rather than swallow).
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// breakWorld releases every blocked rank with ErrWorldBroken.
func (w *World) breakWorld() {
	w.mu.Lock()
	w.broken = true
	groups := make([]*groupState, 0, len(w.groups))
	for _, g := range w.groups {
		groups = append(groups, g)
	}
	w.mu.Unlock()
	for _, g := range groups {
		g.barrier.breakBarrier()
	}
}

// commFor builds the world communicator handle for one rank.
func (w *World) commFor(rank int) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		world: w,
		group: group,
		rank:  rank,
		idx:   rank,
		state: w.groupStateFor(group),
	}
}

// groupStateFor returns (creating if needed) the shared collective state for
// the communicator whose members are the given world ranks.
func (w *World) groupStateFor(group []int) *groupState {
	key := groupKey(group)
	w.mu.Lock()
	defer w.mu.Unlock()
	g, ok := w.groups[key]
	if !ok {
		g = newGroupState(len(group))
		w.groups[key] = g
	}
	return g
}

func groupKey(group []int) string {
	// Group membership uniquely identifies a communicator's shared state.
	// Repeated splits with identical membership safely share the state:
	// barriers are reusable and collectives are two-phase.
	b := make([]byte, 0, len(group)*3)
	for _, r := range group {
		b = append(b, byte(r), byte(r>>8), byte(r>>16))
	}
	return string(b)
}

// Comm is one rank's handle on a communicator (a subset of world ranks).
type Comm struct {
	world *World
	group []int // member world ranks, sorted by communicator rank
	rank  int   // this rank's world rank
	idx   int   // this rank's rank within the communicator
	state *groupState
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.idx }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Machine returns the attached machine model, or nil.
func (c *Comm) Machine() *cluster.Machine { return c.world.machine }

// Clock returns this rank's virtual clock.
func (c *Comm) Clock() *vtime.Clock { return c.world.clocks[c.rank] }

// RNG returns this rank's deterministic random generator.
func (c *Comm) RNG() *vtime.RNG { return c.world.rngs[c.rank] }

// SameNode reports whether this rank and the given communicator rank are
// placed on the same node of the modeled machine. Without a machine model
// all ranks count as one node.
func (c *Comm) SameNode(rank int) bool {
	if c.world.machine == nil {
		return true
	}
	return c.world.machine.SameNode(c.rank, c.group[rank])
}

// groupClocks returns the virtual clocks of this communicator's members.
func (c *Comm) groupClocks() []*vtime.Clock {
	clocks := make([]*vtime.Clock, len(c.group))
	for i, r := range c.group {
		clocks[i] = c.world.clocks[r]
	}
	return clocks
}

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, old rank). Every rank
// of c must call Split. A negative color returns nil (MPI_UNDEFINED): the
// caller is in no new communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	type ck struct{ Color, Key, Idx int }
	all := make([]ck, c.Size())
	if err := c.allgatherAny(ck{color, key, c.idx}, func(i int, v any) { all[i] = v.(ck) }); err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	var members []ck
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Idx < members[j].Idx
	})
	group := make([]int, len(members))
	newIdx := -1
	for i, m := range members {
		group[i] = c.group[m.Idx]
		if m.Idx == c.idx {
			newIdx = i
		}
	}
	return &Comm{
		world: c.world,
		group: group,
		rank:  c.rank,
		idx:   newIdx,
		state: c.world.groupStateFor(group),
	}, nil
}

// groupState holds the shared machinery for one communicator: a reusable
// sense-reversing barrier and a slot array for collective exchanges.
type groupState struct {
	barrier *barrier
	slots   []any
	syncTo  time.Duration // target time computed by the last arriver
	winSeq  int           // per-group window registration sequence
	wins    map[int][][]byte
}

func newGroupState(n int) *groupState {
	return &groupState{
		barrier: newBarrier(n),
		slots:   make([]any, n),
		wins:    make(map[int][][]byte),
	}
}

// barrier is a reusable generation-counting barrier that can be broken to
// release all waiters with an error.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    uint64
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants arrive. onLast, if non-nil, runs
// under the barrier lock in the last arriving rank, before the release; it
// is the hook used to compute collective timing exactly once.
func (b *barrier) await(onLast func()) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return ErrWorldBroken
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		if onLast != nil {
			onLast()
		}
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		return ErrWorldBroken
	}
	return nil
}

func (b *barrier) breakBarrier() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
