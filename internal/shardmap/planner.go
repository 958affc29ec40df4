package shardmap

import (
	"fmt"
	"slices"
)

// Move is one chunk transfer the next generation requires: member ToID
// owns shard Shard, [Lo, Hi), in the next generation and not in the
// current one. A move is a fact about the two maps alone; where its bytes
// come from is the migrating side's choice.
type Move struct {
	Shard  int
	Lo, Hi int64
	ToID   string
}

// Planner derives the next generation from a membership change.
type Planner struct {
	// Width, when > 0, is the target replica width every shard is topped
	// up (or trimmed) to, clamped to the member count. 0 keeps each
	// shard's current width (clamped to the member count).
	Width int
}

// Next plans the generation after cur for the given member set, returning
// the new map (Gen = cur.Gen+1) and the chunk moves it requires, which are
// diff(cur, next): Next decides ownership, and the moves follow from the
// two maps. The plan is deterministic and minimizes moved chunks:
//
//  1. every shard keeps its surviving owners — a departed primary is
//     replaced by its first surviving replica before any data moves;
//  2. shards with no surviving owner are assigned to the least-loaded
//     members;
//  3. primaries move beyond that only as far as load balance requires
//     (every member within one shard of the mean), taking from the most
//     loaded members first;
//  4. owner lists are topped up to the target width with the least-loaded
//     non-owner members (each top-up is a data move: a new replica needs
//     the bytes), or trimmed from the tail (no data moves).
//
// Members carried over from cur are matched by Member.ID, so indexes may
// differ between the generations.
func (p Planner) Next(cur *Map, members []Member) (*Map, []Move, error) {
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("shardmap: cannot plan a generation with no members")
	}
	next := &Map{Gen: cur.Gen + 1, Members: append([]Member(nil), members...)}

	// Remap current owners into next's member index space; departed
	// members drop out of every owner list.
	oldToNew := make([]int, len(cur.Members))
	for i := range cur.Members {
		oldToNew[i] = next.MemberIndex(cur.Members[i].ID)
	}
	next.Shards = make([]Shard, len(cur.Shards))
	load := make([]int, len(members)) // primaries per member
	for i, sh := range cur.Shards {
		owners := make([]int, 0, len(sh.Owners))
		for _, o := range sh.Owners {
			if ni := oldToNew[o]; ni >= 0 {
				owners = append(owners, ni)
			}
		}
		next.Shards[i] = Shard{Lo: sh.Lo, Hi: sh.Hi, Owners: owners}
		if len(owners) > 0 {
			load[owners[0]]++
		}
	}

	// leastLoaded picks the member with the fewest primaries that is not
	// already an owner of shard i (lowest index on ties — deterministic).
	leastLoaded := func(i int) int {
		best := -1
		for mi := range members {
			if slices.Contains(next.Shards[i].Owners, mi) {
				continue
			}
			if best < 0 || load[mi] < load[best] {
				best = mi
			}
		}
		return best
	}

	// Orphaned shards (no surviving owner) go to the least-loaded members.
	for i := range next.Shards {
		if len(next.Shards[i].Owners) > 0 {
			continue
		}
		to := leastLoaded(i)
		next.Shards[i].Owners = []int{to}
		load[to]++
	}

	// Load balance, floor first: every member must end with at least
	// floor(nShards/n) primaries, so a joining member actually takes on
	// work instead of idling while everyone else sits under the ceiling.
	// Recipients steal from the most-loaded member's highest-index shards
	// (deterministic), preferring shards where the recipient already holds
	// a replica — those are promotions, not data moves.
	floor := len(next.Shards) / len(members)
	for {
		rec := -1
		for mi := range members {
			if load[mi] < floor && (rec < 0 || load[mi] < load[rec]) {
				rec = mi
			}
		}
		if rec < 0 {
			break
		}
		don := 0
		for mi := range members {
			if load[mi] > load[don] {
				don = mi
			}
		}
		if load[don] <= floor {
			break
		}
		shard := -1
		for i := len(next.Shards) - 1; i >= 0; i-- {
			if next.Shards[i].Owners[0] != don {
				continue
			}
			if slices.Contains(next.Shards[i].Owners, rec) {
				shard = i // free promotion
				break
			}
			if shard < 0 {
				shard = i
			}
		}
		if shard < 0 {
			break
		}
		next.Shards[shard].Owners = promoteOwner(next.Shards[shard].Owners, rec)
		load[don]--
		load[rec]++
	}

	// Then the ceiling: shed primaries from members above ceil(nShards/n)
	// — the tightest ceiling every membership can satisfy — to members
	// below it, moving the highest-index shards first so the choice is
	// deterministic and repeat plans agree.
	ceiling := (len(next.Shards) + len(members) - 1) / len(members)
	for i := len(next.Shards) - 1; i >= 0; i-- {
		primary := next.Shards[i].Owners[0]
		if load[primary] <= ceiling {
			continue
		}
		to := leastLoaded(i)
		if to < 0 || load[to] >= ceiling {
			continue
		}
		next.Shards[i].Owners = promoteOwner(next.Shards[i].Owners, to)
		load[primary]--
		load[to]++
	}

	// Replica width: top up or trim every shard. Top-ups copy data; trims
	// drop the tail of the preference list and cost nothing.
	for i := range next.Shards {
		want := p.Width
		if want <= 0 {
			want = len(cur.Shards[i].Owners)
		}
		if want > len(members) {
			want = len(members)
		}
		if want < 1 {
			want = 1
		}
		sh := &next.Shards[i]
		for len(sh.Owners) < want {
			to := leastLoaded(i)
			if to < 0 {
				break
			}
			sh.Owners = append(sh.Owners, to)
		}
		if len(sh.Owners) > want {
			sh.Owners = sh.Owners[:want]
		}
	}

	if err := next.Validate(); err != nil {
		return nil, nil, err
	}
	moves, err := diff(cur, next)
	if err != nil {
		return nil, nil, err
	}
	return next, moves, nil
}

// diff returns the chunk moves required to go from cur to next: every
// (shard, owner) pair in next whose member (by ID) does not own the
// shard's range in cur, in shard order. The shard geometry must match.
func diff(cur, next *Map) ([]Move, error) {
	if len(cur.Shards) != len(next.Shards) {
		return nil, fmt.Errorf("shardmap: diff across different shard counts (%d vs %d)", len(cur.Shards), len(next.Shards))
	}
	var moves []Move
	for i := range next.Shards {
		ns, cs := &next.Shards[i], &cur.Shards[i]
		if ns.Lo != cs.Lo || ns.Hi != cs.Hi {
			return nil, fmt.Errorf("shardmap: shard %d geometry changed ([%d,%d) vs [%d,%d))", i, cs.Lo, cs.Hi, ns.Lo, ns.Hi)
		}
		for _, o := range ns.Owners {
			// A member new to the cluster has index -1 in cur, which no
			// owner list holds.
			if id := next.Members[o].ID; !slices.Contains(cs.Owners, cur.MemberIndex(id)) {
				moves = append(moves, Move{Shard: i, Lo: ns.Lo, Hi: ns.Hi, ToID: id})
			}
		}
	}
	return moves, nil
}

// promoteOwner makes mi the primary, keeping the rest of the preference
// order stable.
func promoteOwner(owners []int, mi int) []int {
	out := make([]int, 0, len(owners)+1)
	out = append(out, mi)
	for _, o := range owners {
		if o != mi {
			out = append(out, o)
		}
	}
	return out
}
