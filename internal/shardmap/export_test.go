package shardmap

// Clone returns a deep copy safe to mutate while building the next
// generation.
func (m *Map) Clone() *Map {
	c := &Map{Gen: m.Gen, Members: append([]Member(nil), m.Members...)}
	c.Shards = make([]Shard, len(m.Shards))
	for i, sh := range m.Shards {
		c.Shards[i] = Shard{Lo: sh.Lo, Hi: sh.Hi, Owners: append([]int(nil), sh.Owners...)}
	}
	return c
}
