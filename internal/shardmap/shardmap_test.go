package shardmap

import (
	"strings"
	"testing"
)

func members(ids ...string) []Member {
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i] = Member{ID: id, Addr: "127.0.0.1:" + id}
	}
	return out
}

func TestUniformCoversKeyspaceBalanced(t *testing.T) {
	mems := members("a", "b", "c")
	m, err := Uniform(0, 1000, mems, UniformOptions{ShardsPerMember: 4, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != 1 {
		t.Fatalf("Gen = %d, want 1", m.Gen)
	}
	if got := len(m.Shards); got != 12 {
		t.Fatalf("shards = %d, want 12", got)
	}
	lo, hi := m.Range()
	if lo != 0 || hi != 1000 {
		t.Fatalf("Range = [%d,%d), want [0,1000)", lo, hi)
	}
	// Every id resolves, and primaries are balanced.
	load := make([]int, len(mems))
	for _, sh := range m.Shards {
		if sh.Width() != 2 {
			t.Fatalf("shard width = %d, want 2", sh.Width())
		}
		load[sh.Owners[0]]++
	}
	for mi, n := range load {
		if n != 4 {
			t.Fatalf("member %d has %d primaries, want 4", mi, n)
		}
	}
	// Contiguity of primary runs (same striping as static chunkStarts).
	for i := 1; i < len(m.Shards); i++ {
		if m.Shards[i].Owners[0] < m.Shards[i-1].Owners[0] {
			t.Fatalf("primaries not a contiguous ascending run: %v then %v",
				m.Shards[i-1].Owners, m.Shards[i].Owners)
		}
	}
}

func TestUniformTinyKeyspaceClampsShards(t *testing.T) {
	m, err := Uniform(0, 5, members("a", "b", "c"), UniformOptions{ShardsPerMember: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Shards); got != 5 {
		t.Fatalf("shards = %d, want 5 (clamped to keyspace size)", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWidthClampedToMembers(t *testing.T) {
	m, err := Uniform(0, 100, members("a", "b"), UniformOptions{Width: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range m.Shards {
		if sh.Width() != 2 {
			t.Fatalf("width = %d, want 2", sh.Width())
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(10, 10, members("a"), UniformOptions{}); err == nil {
		t.Fatal("empty keyspace accepted")
	}
	if _, err := Uniform(0, 10, nil, UniformOptions{}); err == nil {
		t.Fatal("no members accepted")
	}
}

func TestOwnerLookups(t *testing.T) {
	m := &Map{
		Gen:     3,
		Members: members("a", "b", "c"),
		Shards: []Shard{
			{Lo: 0, Hi: 10, Owners: []int{0, 1}},
			{Lo: 10, Hi: 25, Owners: []int{1, 2}},
			{Lo: 25, Hi: 30, Owners: []int{2, 0}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		id    int64
		shard int
		owner int
	}{
		{0, 0, 0}, {9, 0, 0}, {10, 1, 1}, {24, 1, 1}, {25, 2, 2}, {29, 2, 2},
	}
	for _, c := range cases {
		if got := m.ShardIndex(c.id); got != c.shard {
			t.Fatalf("ShardIndex(%d) = %d, want %d", c.id, got, c.shard)
		}
		sh, err := m.ShardOf(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if own := sh.Owners[0]; own != c.owner {
			t.Fatalf("primary of %d = %d, want %d", c.id, own, c.owner)
		}
	}
	for _, id := range []int64{-1, 30, 1 << 40} {
		if got := m.ShardIndex(id); got != -1 {
			t.Fatalf("ShardIndex(%d) = %d, want -1", id, got)
		}
		if _, err := m.ShardOf(id); err == nil || !strings.Contains(err.Error(), "outside keyspace") {
			t.Fatalf("ShardOf(%d) err = %v, want outside-keyspace", id, err)
		}
	}
}

func TestPreferredOwnerRotatesOverReplicas(t *testing.T) {
	m := &Map{
		Gen:     1,
		Members: members("a", "b", "c"),
		Shards:  []Shard{{Lo: 0, Hi: 9, Owners: []int{2, 0, 1}}},
	}
	// id mod width picks the rotation slot, matching static id%r.
	want := map[int64]int{0: 2, 1: 0, 2: 1, 3: 2, 4: 0}
	for id, w := range want {
		got, err := m.PreferredOwner(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("PreferredOwner(%d) = %d, want %d", id, got, w)
		}
	}
	if _, err := m.PreferredOwner(99); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if got := preferenceIndex(-7, 3); got < 0 || got >= 3 {
		t.Fatalf("preferenceIndex(-7,3) = %d, want in [0,3)", got)
	}
}

func TestMemberIndexAndOwnedBy(t *testing.T) {
	m := &Map{
		Gen:     1,
		Members: members("a", "b"),
		Shards:  []Shard{{Lo: 0, Hi: 10, Owners: []int{1, 0}}, {Lo: 10, Hi: 20, Owners: []int{0}}},
	}
	if got := m.MemberIndex("b"); got != 1 {
		t.Fatalf("MemberIndex(b) = %d, want 1", got)
	}
	if got := m.MemberIndex("zzz"); got != -1 {
		t.Fatalf("MemberIndex(zzz) = %d, want -1", got)
	}
	if !m.OwnedBy(5, 0) || !m.OwnedBy(5, 1) {
		t.Fatal("both members own shard 0")
	}
	if m.OwnedBy(15, 1) {
		t.Fatal("member 1 does not own shard 1")
	}
	if m.OwnedBy(99, 0) {
		t.Fatal("out-of-range id owned by no one")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, err := Uniform(0, 100, members("a", "b"), UniformOptions{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Shards[0].Owners[0] = 1
	c.Members[0].ID = "mutated"
	if m.Shards[0].Owners[0] == 1 && m.Members[0].ID == "mutated" {
		t.Fatal("Clone shares backing arrays with the original")
	}
}

func TestValidateRejections(t *testing.T) {
	good := func() *Map {
		return &Map{
			Gen:     1,
			Members: members("a", "b"),
			Shards:  []Shard{{Lo: 0, Hi: 10, Owners: []int{0}}, {Lo: 10, Hi: 20, Owners: []int{1}}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Map)
		want   string
	}{
		{"gen zero", func(m *Map) { m.Gen = 0 }, "generation 0"},
		{"no members", func(m *Map) { m.Members = nil }, "no members"},
		{"no shards", func(m *Map) { m.Shards = nil }, "no shards"},
		{"empty member id", func(m *Map) { m.Members[1].ID = "" }, "empty ID"},
		{"dup member id", func(m *Map) { m.Members[1].ID = "a" }, "duplicate member"},
		{"empty shard", func(m *Map) { m.Shards[0].Hi = 0 }, "empty range"},
		{"gap", func(m *Map) { m.Shards[1].Lo = 11 }, "gap between"},
		{"no owners", func(m *Map) { m.Shards[0].Owners = nil }, "no owners"},
		{"owner out of range", func(m *Map) { m.Shards[0].Owners = []int{7} }, "outside member list"},
		{"negative owner", func(m *Map) { m.Shards[0].Owners = []int{-1} }, "outside member list"},
		{"dup owner", func(m *Map) { m.Shards[0].Owners = []int{0, 0} }, "twice"},
	}
	for _, c := range cases {
		m := good()
		c.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good map rejected: %v", err)
	}
}

func TestEmptyMapRange(t *testing.T) {
	m := &Map{Gen: 1}
	lo, hi := m.Range()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty Range = [%d,%d), want [0,0)", lo, hi)
	}
	if got := m.ShardIndex(0); got != -1 {
		t.Fatalf("ShardIndex on empty map = %d, want -1", got)
	}
}
