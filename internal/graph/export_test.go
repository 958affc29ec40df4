package graph

// SizedGraph hands the decode sweep's shape generator to the differential
// tests in reference_test.go, which sit outside the package so that they
// can import internal/datasets.
var SizedGraph = sizedGraph

// Holds reports whether g is one of the Graphs in the load's Graph slab.
func (s *Slabs) Holds(g *Graph) bool {
	for i := range s.graphs {
		if &s.graphs[i] == g {
			return true
		}
	}
	return false
}

// FlipHostOrder makes the codec treat the host as having the other byte
// order, so a little-endian host runs the swap passes a big-endian one does.
func FlipHostOrder() { hostLittleEndian = !hostLittleEndian }
