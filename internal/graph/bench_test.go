package graph

import (
	"fmt"
	"testing"

	"ddstore/internal/vtime"
)

// sizedGraph builds a dense, fixed-dimension sample with the given node
// count — the shape knob the decode sweep turns.
func sizedGraph(rng *vtime.RNG, nodes int) *Graph {
	const nodeDim, edgeDim = 16, 4
	edges := 3 * nodes
	g := &Graph{
		ID:          1,
		NumNodes:    nodes,
		NodeFeatDim: nodeDim,
		NodeFeat:    make([]float32, nodes*nodeDim),
		EdgeSrc:     make([]int32, edges),
		EdgeDst:     make([]int32, edges),
		EdgeFeatDim: edgeDim,
		EdgeFeat:    make([]float32, edges*edgeDim),
		Pos:         make([]float32, nodes*3),
		Y:           []float32{1},
	}
	for i := range g.NodeFeat {
		g.NodeFeat[i] = float32(rng.NormFloat64())
	}
	for i := range g.EdgeSrc {
		g.EdgeSrc[i] = int32(rng.Intn(nodes))
		g.EdgeDst[i] = int32(rng.Intn(nodes))
	}
	for i := range g.EdgeFeat {
		g.EdgeFeat[i] = float32(rng.NormFloat64())
	}
	for i := range g.Pos {
		g.Pos[i] = float32(rng.Float64())
	}
	return g
}

// BenchmarkDecodeSizes measures the wire-validation hot path a load
// pays once per remote sample, swept over graph size. Since the lazy
// decode split, this is DecodeLazy: full header validation with tensor
// materialization deferred — the cost every fetched sample pays whether or
// not its tensors are ever touched. The allocs/op budget (<= 1, the Lazy
// itself) is enforced by `make bench-allocs` in CI.
func BenchmarkDecodeSizes(b *testing.B) {
	rng := vtime.NewRNG(11)
	for _, nodes := range []int{8, 64, 256} {
		enc := sizedGraph(rng, nodes).Encode()
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeLazy(enc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaterializeSizes is the honest other half: header validation
// plus full tensor materialization (what Decode used to measure), so the
// lazy split can't hide the decode cost — it only defers it to first
// touch. One slab allocation backs all six tensors, so the whole decode is
// three (Lazy, Graph, slab): `make bench-allocs` holds it to that.
func BenchmarkMaterializeSizes(b *testing.B) {
	rng := vtime.NewRNG(11)
	for _, nodes := range []int{8, 64, 256} {
		enc := sizedGraph(rng, nodes).Encode()
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lz, err := DecodeLazy(enc, nil)
				if err != nil {
					b.Fatal(err)
				}
				if lz.Graph() == nil {
					b.Fatal("nil graph")
				}
			}
		})
	}
}
