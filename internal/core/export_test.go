package core

import "unsafe"

// registryArrays returns, per group member, the backing array of the end
// offsets this rank locates that member's samples through: equal arrays on
// two ranks mean they share one registry, not copies of it.
func (s *Store) registryArrays() []*uint32 {
	out := make([]*uint32, len(s.ends))
	for g, ends := range s.ends {
		out[g] = unsafe.SliceData(ends)
	}
	return out
}
