package shardmap

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// ownersByID maps every shard to its owner IDs, for cross-generation
// comparisons independent of member index shuffles.
func ownersByID(m *Map) [][]string {
	out := make([][]string, len(m.Shards))
	for i, sh := range m.Shards {
		for _, o := range sh.Owners {
			out[i] = append(out[i], m.Members[o].ID)
		}
	}
	return out
}

// survivingHolder reports whether some current owner of shard i is still
// a member in next: a live source the moved bytes can be pulled from.
func survivingHolder(cur, next *Map, i int) bool {
	return slices.ContainsFunc(cur.Shards[i].Owners, func(o int) bool {
		return next.MemberIndex(cur.Members[o].ID) >= 0
	})
}

func primaryLoad(m *Map) map[string]int {
	load := map[string]int{}
	for _, sh := range m.Shards {
		load[m.Members[sh.Owners[0]].ID]++
	}
	return load
}

func TestPlannerJoinMovesMinimally(t *testing.T) {
	cur, err := Uniform(0, 1200, members("a", "b"), UniformOptions{ShardsPerMember: 3, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	next, moves, err := Planner{Width: 1}.Next(cur, members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Gen != 2 {
		t.Fatalf("Gen = %d, want 2", next.Gen)
	}
	// 6 shards over 3 members: ceiling 2, so c must take exactly 2 shards
	// and nothing else may move.
	if len(moves) != 2 {
		t.Fatalf("moves = %d (%+v), want 2", len(moves), moves)
	}
	load := primaryLoad(next)
	for _, id := range []string{"a", "b", "c"} {
		if load[id] != 2 {
			t.Fatalf("member %s load = %d, want 2 (load: %v)", id, load[id], load)
		}
	}
	// Every move targets c, and its shard has a current owner that stays.
	for _, mv := range moves {
		if mv.ToID != "c" {
			t.Fatalf("move to %s, want c", mv.ToID)
		}
		if !survivingHolder(cur, next, mv.Shard) {
			t.Fatalf("move %+v: no current owner of the shard survives", mv)
		}
	}
}

func TestPlannerLeaveReplicaPromotionZeroCopiesAtWidth2(t *testing.T) {
	// Width 2 over 3 members: every shard has a replica. When one member
	// leaves, its primaries promote their surviving replica — the only
	// data moves are width top-ups, never primary re-copies.
	cur, err := Uniform(0, 900, members("a", "b", "c"), UniformOptions{ShardsPerMember: 2, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	next, moves, err := Planner{Width: 2}.Next(cur, members("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	// Every shard previously involving b must now be owned by a and c,
	// both of which already held a copy (either as primary or replica) —
	// except width top-ups where only one survivor held the data.
	for i, ids := range ownersByID(next) {
		for _, id := range ids {
			if id == "b" {
				t.Fatalf("shard %d still owned by departed member b", i)
			}
		}
		if len(ids) != 2 {
			t.Fatalf("shard %d width = %d, want 2", i, len(ids))
		}
	}
	// Promotions are free; only genuine top-ups (one survivor) move data,
	// and each copies from a survivor.
	for _, mv := range moves {
		if !survivingHolder(cur, next, mv.Shard) {
			t.Fatalf("move %+v has no surviving holder despite width 2", mv)
		}
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerCrashOrphansFallBackToSource(t *testing.T) {
	// Width 1: a crash orphans the dead member's shards entirely. The
	// planner must still produce a valid map, in which no current owner of
	// an orphaned shard survives: the bytes are re-read from the durable
	// backing source.
	cur, err := Uniform(0, 100, members("a", "b"), UniformOptions{ShardsPerMember: 2, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	next, moves, err := Planner{Width: 1}.Next(cur, members("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 {
		t.Fatalf("moves = %d, want 2 (b's two shards)", len(moves))
	}
	for _, mv := range moves {
		if survivingHolder(cur, next, mv.Shard) {
			t.Fatalf("orphan move %+v: a current owner of the shard survives", mv)
		}
		if mv.ToID != "a" {
			t.Fatalf("orphan move to %s, want a", mv.ToID)
		}
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerStableWhenNothingChanges(t *testing.T) {
	cur, err := Uniform(0, 640, members("a", "b", "c", "d"), UniformOptions{ShardsPerMember: 4, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	next, moves, err := Planner{Width: 2}.Next(cur, members("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("same membership produced %d moves: %+v", len(moves), moves)
	}
	if !reflect.DeepEqual(ownersByID(cur), ownersByID(next)) {
		t.Fatal("same membership changed ownership")
	}
}

func TestPlannerDeterministic(t *testing.T) {
	cur, err := Uniform(0, 5000, members("a", "b", "c"), UniformOptions{ShardsPerMember: 5, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	n1, m1, err := Planner{Width: 2}.Next(cur, members("a", "c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	n2, m2, err := Planner{Width: 2}.Next(cur, members("a", "c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ownersByID(n1), ownersByID(n2)) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("planner is not deterministic")
	}
}

func TestPlannerWidthChange(t *testing.T) {
	cur, err := Uniform(0, 300, members("a", "b", "c"), UniformOptions{ShardsPerMember: 2, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Widen 1 -> 2: every shard gains a replica; each gain is a move.
	next, moves, err := Planner{Width: 2}.Next(cur, members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != len(cur.Shards) {
		t.Fatalf("widening moved %d chunks, want %d", len(moves), len(cur.Shards))
	}
	for _, sh := range next.Shards {
		if len(sh.Owners) != 2 {
			t.Fatalf("width = %d, want 2", len(sh.Owners))
		}
	}
	// Narrow back 2 -> 1: trims are free.
	narrow, moves2, err := Planner{Width: 1}.Next(next, members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves2) != 0 {
		t.Fatalf("narrowing moved %d chunks, want 0", len(moves2))
	}
	for _, sh := range narrow.Shards {
		if len(sh.Owners) != 1 {
			t.Fatalf("width = %d, want 1", len(sh.Owners))
		}
	}
}

func TestPlannerLoadBalanceCeiling(t *testing.T) {
	// Start grossly imbalanced: one member owns everything.
	m := &Map{Gen: 1, Members: members("a", "b", "c")}
	for i := int64(0); i < 9; i++ {
		m.Shards = append(m.Shards, Shard{Lo: i * 10, Hi: (i + 1) * 10, Owners: []int{0}})
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	next, _, err := Planner{Width: 1}.Next(m, members("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	load := primaryLoad(next)
	for id, n := range load {
		if n > 3 {
			t.Fatalf("member %s load %d exceeds ceiling 3 (load: %v)", id, n, load)
		}
	}
}

func TestPlannerErrors(t *testing.T) {
	cur, err := Uniform(0, 10, members("a"), UniformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (Planner{}).Next(cur, nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, _, err := (Planner{}).Next(cur, members("x", "x")); err == nil {
		t.Fatal("duplicate member IDs accepted")
	}
}

func TestDiffGeometryMismatch(t *testing.T) {
	a, err := Uniform(0, 100, members("a"), UniformOptions{ShardsPerMember: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Uniform(0, 100, members("a"), UniformOptions{ShardsPerMember: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diff(a, b); err == nil || !strings.Contains(err.Error(), "shard counts") {
		t.Fatalf("diff err = %v, want shard-count mismatch", err)
	}
	c := a.Clone()
	c.Shards[0].Hi++
	c.Shards[1].Lo++
	if _, err := diff(a, c); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("diff err = %v, want geometry mismatch", err)
	}
}
