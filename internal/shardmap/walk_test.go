package shardmap

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

const (
	walkKeys       = 1000 // keyspace [0, walkKeys) of every walk
	walkMaxMembers = 12   // joins past this many members are skipped
	walkMaxOps     = 64   // a fuzzed walk plans at most this many generations
)

// plannerWalk drives one membership walk through the planner and checks
// every plan it makes. It starts from Uniform over n0 members at the given
// width and shards per member; each op byte then, by op%4, joins a new
// member (as AddOwner does), drains the last member (as Reshard does),
// crashes the member op/4 picks (as CrashOwner does) or replans the same
// membership. A leave or crash of the only member, or a join past
// walkMaxMembers, replans unchanged. The planner and Uniform copy the
// member list, so the walk edits its own in place.
func plannerWalk(t *testing.T, width, perMember, n0 int, ops []byte) {
	t.Helper()
	mems := make([]Member, n0)
	for i := range mems {
		mems[i] = Member{ID: fmt.Sprintf("m%d", i)}
	}
	joined := n0
	cur, err := Uniform(0, walkKeys, mems, UniformOptions{ShardsPerMember: perMember, Width: width})
	if err != nil {
		t.Fatal(err)
	}
	for step, op := range ops {
		switch op % 4 {
		case 0:
			if len(mems) < walkMaxMembers {
				mems = append(mems, Member{ID: fmt.Sprintf("m%d", joined)})
				joined++
			}
		case 1:
			if len(mems) > 1 {
				mems = mems[:len(mems)-1]
			}
		case 2:
			if len(mems) > 1 {
				victim := int(op/4) % len(mems)
				mems = slices.Delete(mems, victim, victim+1)
			}
		}
		next, moves, err := Planner{Width: width}.Next(cur, mems)
		if err != nil {
			t.Fatalf("step %d (op %d, width %d, %d per member): %v", step, op, width, perMember, err)
		}
		if msg := checkPlan(cur, next, moves, width); msg != "" {
			t.Fatalf("step %d (op %d, width %d, %d per member, %d -> %d members): %s",
				step, op, width, perMember, len(cur.Members), len(next.Members), msg)
		}
		cur = next
	}
}

// checkPlan returns what is wrong with the plan cur -> next and its moves,
// or "" when nothing is: next is a valid map one generation on, every
// shard is min(width, members) wide, every member's primary count lies in
// [⌊S/N⌋, ⌈S/N⌉], and the moves are exactly the (shard, member) pairs that
// are new in next, each with the shard's range.
func checkPlan(cur, next *Map, moves []Move, width int) string {
	if err := next.Validate(); err != nil {
		return err.Error()
	}
	if next.Gen != cur.Gen+1 {
		return fmt.Sprintf("generation %d after %d", next.Gen, cur.Gen)
	}
	n, s := len(next.Members), len(next.Shards)
	load := make([]int, n)
	for i, sh := range next.Shards {
		if want := min(width, n); len(sh.Owners) != want {
			return fmt.Sprintf("shard %d width %d, want %d", i, len(sh.Owners), want)
		}
		load[sh.Owners[0]]++
	}
	for mi, l := range load {
		if l < s/n || l > (s+n-1)/n {
			return fmt.Sprintf("member %s holds %d of %d primaries over %d members", next.Members[mi].ID, l, s, n)
		}
	}
	var want, got []string
	for i, sh := range next.Shards {
		for _, o := range sh.Owners {
			if id := next.Members[o].ID; !slices.Contains(cur.Shards[i].Owners, cur.MemberIndex(id)) {
				want = append(want, fmt.Sprintf("%d:%s", i, id))
			}
		}
	}
	for _, mv := range moves {
		if mv.Shard < 0 || mv.Shard >= s {
			return fmt.Sprintf("move %+v names no shard", mv)
		}
		if sh := next.Shards[mv.Shard]; mv.Lo != sh.Lo || mv.Hi != sh.Hi {
			return fmt.Sprintf("move %+v does not carry shard %d's range [%d,%d)", mv, mv.Shard, sh.Lo, sh.Hi)
		}
		got = append(got, fmt.Sprintf("%d:%s", mv.Shard, mv.ToID))
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		return fmt.Sprintf("moves %s, want the new pairs %s", strings.Join(got, " "), strings.Join(want, " "))
	}
	return ""
}

// TestPlannerWalk checks every plan of seeded random walks at widths 1–3
// and 1–6 shards per member.
func TestPlannerWalk(t *testing.T) {
	for seed := uint64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 12)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		plannerWalk(t, 1+rng.IntN(3), 1+rng.IntN(6), 1+rng.IntN(4), ops)
	}
}

// FuzzPlannerWalk drives the same walk and checks from fuzzer bytes.
func FuzzPlannerWalk(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(1), []byte{0, 0, 1, 6, 3, 0, 2})
	f.Add(uint8(1), uint8(5), uint8(3), []byte{2, 2, 0, 0, 0, 1, 10, 3})
	f.Add(uint8(2), uint8(0), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 6, 6, 2})
	f.Fuzz(func(t *testing.T, width, perMember, n0 uint8, ops []byte) {
		plannerWalk(t, 1+int(width%3), 1+int(perMember%6), 1+int(n0%4), ops[:min(len(ops), walkMaxOps)])
	})
}
