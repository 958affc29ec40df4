// Package shardmap is the versioned ownership spine of the served TCP
// data plane. DDStore's original owner arithmetic was frozen at startup: a
// static rank count turned a sample id into an owner, so a rank that
// joined, left, or died mid-run either stranded its chunks or forced a
// full restart. On the TCP plane this package replaces that arithmetic
// with an explicit, epoch-numbered shard map — every server serves one (a
// server given none serves its own chunk as generation 1), and every
// client route resolves through it. The in-process RMA store keeps the
// paper's fixed striping; its ranks never change.
//
//   - a Map is one generation of ownership: the member list, plus the
//     sample-id keyspace range-split into contiguous shards, each with an
//     ordered owner list (Owners[0] is the primary; the list's length is
//     that shard's replica width w, adjustable per shard);
//   - a Planner derives the next generation from a membership change,
//     moving as few shards as possible — shards whose owner survives stay
//     put, a dead primary is replaced by a surviving replica before any
//     data moves, and only orphaned shards plus the minimum needed for
//     load balance are reassigned;
//   - a Store holds the live generation and a bounded history, so a fetch
//     that started under generation g can keep resolving against g while
//     g+1 is being migrated, and publishes every applied generation to
//     subscribers.
//
// Maps are immutable once built (the Planner and Store copy, never
// mutate), so a *Map handed out by Store.Current or Store.At is safe to
// read from any goroutine forever.
package shardmap

import "fmt"

// Member is one owner process of the cluster. ID is the stable identity
// membership transitions are keyed on (two generations refer to the same
// process iff the IDs match); Addr is where its data plane listens.
type Member struct {
	ID   string
	Addr string
}

// Shard is one contiguous range [Lo, Hi) of sample ids and its ordered
// owner list. Owners holds indexes into the Map's member list; Owners[0]
// is the primary, and the slice length is this shard's replica width.
type Shard struct {
	Lo, Hi int64
	Owners []int
}

// Width returns the shard's replica width.
func (s *Shard) Width() int { return len(s.Owners) }

// Choice returns the member index of id's k-th choice owner: the owner
// list rotated by id's preference slot, so k = 0 is the preferred owner
// and successive k values walk the remaining replicas in a stable order.
// Failover paths iterate k instead of re-deriving replica arithmetic.
func (s *Shard) Choice(id int64, k int) int {
	w := len(s.Owners)
	return s.Owners[(preferenceIndex(id, w)+k)%w]
}

// Map is one generation of cluster ownership. The shards are sorted by Lo
// and tile a contiguous keyspace. A Map is immutable after construction.
type Map struct {
	Gen     uint64
	Members []Member
	Shards  []Shard
}

// Range returns the keyspace [lo, hi) the map covers.
func (m *Map) Range() (lo, hi int64) {
	if len(m.Shards) == 0 {
		return 0, 0
	}
	return m.Shards[0].Lo, m.Shards[len(m.Shards)-1].Hi
}

// ShardIndex returns the index of the shard holding id, or -1.
func (m *Map) ShardIndex(id int64) int {
	n := len(m.Shards)
	if n == 0 || id < m.Shards[0].Lo || id >= m.Shards[n-1].Hi {
		return -1
	}
	// The first shard ending past id, by hand: every routed id comes here,
	// and sort.Search would call a closure per step.
	lo, hi := 0, n
	for lo < hi {
		if mid := (lo + hi) / 2; m.Shards[mid].Hi > id {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == n || id < m.Shards[lo].Lo {
		return -1
	}
	return lo
}

// ShardOf returns the shard holding id.
func (m *Map) ShardOf(id int64) (*Shard, error) {
	i := m.ShardIndex(id)
	if i < 0 {
		lo, hi := m.Range()
		return nil, fmt.Errorf("shardmap: sample %d outside keyspace [%d,%d) (generation %d)", id, lo, hi, m.Gen)
	}
	return &m.Shards[i], nil
}

// PreferredOwner returns the member index of id's preferred owner: the
// replicas of id's shard are rotated by id so a population of ids spreads
// read load over the shard's whole owner list, the same way the static
// replica groups preferred replica id%r.
func (m *Map) PreferredOwner(id int64) (int, error) {
	sh, err := m.ShardOf(id)
	if err != nil {
		return 0, err
	}
	return sh.Owners[preferenceIndex(id, len(sh.Owners))], nil
}

// preferenceIndex rotates replica preference by id (non-negative even for
// pathological ids).
func preferenceIndex(id int64, width int) int {
	p := int(id % int64(width))
	if p < 0 {
		p += width
	}
	return p
}

// MemberIndex returns the index of the member with the given ID, or -1.
func (m *Map) MemberIndex(id string) int {
	for i := range m.Members {
		if m.Members[i].ID == id {
			return i
		}
	}
	return -1
}

// OwnedBy reports whether the member at index mi owns id under this
// generation (primary or replica).
func (m *Map) OwnedBy(id int64, mi int) bool {
	sh, err := m.ShardOf(id)
	if err != nil {
		return false
	}
	for _, o := range sh.Owners {
		if o == mi {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants: at least one member and one
// shard, shards sorted and tiling a contiguous non-empty keyspace, every
// shard with at least one owner, all owner indexes in range with no
// duplicates inside one shard, and distinct member IDs.
func (m *Map) Validate() error {
	if m.Gen == 0 {
		return fmt.Errorf("shardmap: generation 0 is reserved (generations start at 1)")
	}
	if len(m.Members) == 0 {
		return fmt.Errorf("shardmap: map has no members")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shardmap: map has no shards")
	}
	seen := make(map[string]bool, len(m.Members))
	for i, mem := range m.Members {
		if mem.ID == "" {
			return fmt.Errorf("shardmap: member %d has an empty ID", i)
		}
		if seen[mem.ID] {
			return fmt.Errorf("shardmap: duplicate member ID %q", mem.ID)
		}
		seen[mem.ID] = true
	}
	for i, sh := range m.Shards {
		if sh.Hi <= sh.Lo {
			return fmt.Errorf("shardmap: shard %d has empty range [%d,%d)", i, sh.Lo, sh.Hi)
		}
		if i > 0 && sh.Lo != m.Shards[i-1].Hi {
			return fmt.Errorf("shardmap: gap between shard %d (ends %d) and shard %d (starts %d)",
				i-1, m.Shards[i-1].Hi, i, sh.Lo)
		}
		if len(sh.Owners) == 0 {
			return fmt.Errorf("shardmap: shard %d [%d,%d) has no owners", i, sh.Lo, sh.Hi)
		}
		inShard := make(map[int]bool, len(sh.Owners))
		for _, o := range sh.Owners {
			if o < 0 || o >= len(m.Members) {
				return fmt.Errorf("shardmap: shard %d owner index %d outside member list of %d", i, o, len(m.Members))
			}
			if inShard[o] {
				return fmt.Errorf("shardmap: shard %d lists member %d twice", i, o)
			}
			inShard[o] = true
		}
	}
	return nil
}

// UniformOptions shape the initial generation built by Uniform.
type UniformOptions struct {
	// ShardsPerMember is how many shards the keyspace is split into per
	// member (default 8). More shards mean finer-grained rebalances at the
	// cost of a larger map.
	ShardsPerMember int
	// Width is the replica width of every shard (default 1, clamped to the
	// member count). Owners beyond the primary are the next members cyclic.
	Width int
}

// Uniform builds generation 1: the keyspace [lo, hi) range-split into
// contiguous shards assigned round-robin-contiguously over the members.
// Shard k's primary is member k*len(members)/nShards, so each member owns
// one contiguous run of shards — the same balanced striping the static
// chunkStarts arithmetic produced, now as an explicit versioned map.
func Uniform(lo, hi int64, members []Member, opts UniformOptions) (*Map, error) {
	if hi <= lo {
		return nil, fmt.Errorf("shardmap: empty keyspace [%d,%d)", lo, hi)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("shardmap: no members")
	}
	per := opts.ShardsPerMember
	if per <= 0 {
		per = 8
	}
	width := opts.Width
	if width <= 0 {
		width = 1
	}
	if width > len(members) {
		width = len(members)
	}
	nShards := per * len(members)
	if int64(nShards) > hi-lo {
		nShards = int(hi - lo)
	}
	m := &Map{Gen: 1, Members: append([]Member(nil), members...)}
	total := hi - lo
	cursor := lo
	for k := 0; k < nShards; k++ {
		// Balanced integer split: shard k covers total/nShards samples,
		// the first total%nShards shards one extra.
		size := total / int64(nShards)
		if int64(k) < total%int64(nShards) {
			size++
		}
		primary := k * len(members) / nShards
		owners := make([]int, 0, width)
		for r := 0; r < width; r++ {
			owners = append(owners, (primary+r)%len(members))
		}
		m.Shards = append(m.Shards, Shard{Lo: cursor, Hi: cursor + size, Owners: owners})
		cursor += size
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
