package graph_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/graph"
	"ddstore/internal/vtime"
)

// slabCorpus is a load's worth of mixed samples for the shared slabs: the
// sizes either side of cloneWords' append threshold, every way a tensor can
// be empty (zero nodes, zero edges, no positions, zero feature widths), and
// the odd bit patterns.
func slabCorpus(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	rng := vtime.NewRNG(5)
	for _, nodes := range []int{8, 64, 1} {
		out = append(out, graph.SizedGraph(rng, nodes).Encode())
	}
	for _, c := range differentialCorpus(t)[1024:] {
		out = append(out, c.g.Encode())
	}
	return append(out,
		(&graph.Graph{ID: 20, NumNodes: 3, NodeFeatDim: 2, NodeFeat: []float32{1, 2, 3, 4, 5, 6}, Y: []float32{1}}).Encode(),
		(&graph.Graph{ID: 21, NumNodes: 2, EdgeSrc: []int32{0, 1}, EdgeDst: []int32{1, 0}, Pos: []float32{1, 2, 3, 4, 5, 6}}).Encode(),
	)
}

// slabLoad is one load's views over pooled buffers, one buffer per
// distinct sample, as a plane delivers them.
type slabLoad struct {
	views []graph.Lazy
	slabs graph.Slabs
	bufs  []*bufarena.Buf
	encs  [][]byte // per position
}

// newSlabLoad decodes the samples of positions into a load's views: a
// position names its sample, and a repeat is a CloneInto of the sample's
// first position, as the fetch engine makes one. A position of -1 is left
// empty.
func newSlabLoad(t *testing.T, encs [][]byte, positions []int) *slabLoad {
	t.Helper()
	ld := &slabLoad{views: make([]graph.Lazy, len(positions)), encs: make([][]byte, len(positions))}
	ld.slabs.Bind(ld.views)
	first := map[int]int{}
	for pos, k := range positions {
		if k < 0 {
			continue
		}
		ld.encs[pos] = encs[k]
		if p, ok := first[k]; ok {
			ld.views[p].CloneInto(&ld.views[pos])
			continue
		}
		first[k] = pos
		ld.decode(t, pos, encs[k])
	}
	return ld
}

// decode delivers enc into position pos from a pooled buffer of its own.
func (ld *slabLoad) decode(t *testing.T, pos int, enc []byte) {
	t.Helper()
	buf := bufarena.Get(len(enc))
	copy(buf.Bytes(), enc)
	if err := ld.slabs.DecodeInto(pos, buf.Bytes(), buf); err != nil {
		t.Fatal(err)
	}
	ld.bufs, ld.encs[pos] = append(ld.bufs, buf), enc
}

// TestSharedSlabGraphs holds the Graphs a load's views materialize into
// its shared slabs to what Decode makes of the same bytes, and to the
// ownership rules a standalone Graph keeps: an append to any tensor reaches
// no neighbour, mutating one Graph leaves every other Graph and every
// source buffer alone (TestGraphOwnsItsMemory, for a slab many Graphs
// share), and every buffer reference is released, the last one poisoning
// its buffer. Each case also checks which Graphs came from the slabs.
func TestSharedSlabGraphs(t *testing.T) {
	encs := slabCorpus(t)
	all := make([]int, len(encs))
	for i := range all {
		all[i] = i
	}
	for _, tc := range []struct {
		name      string
		positions []int
		released  []int // released before the first Graph call
		// late, when nonzero, is decoded (from sample 1) once position 0 is
		// materialized, so its Graph must come from no slab.
		late int
	}{
		{name: "mixed sizes", positions: all},
		{name: "duplicates", positions: []int{0, 3, 0, 1, 3, 3, len(encs) - 1, 1}},
		{name: "released before the first Graph", positions: []int{4, 0, 5, 1}, released: []int{2}},
		{name: "decoded after sizing", positions: []int{0, 2, -1, 3}, late: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ld := newSlabLoad(t, encs, tc.positions)
			for _, pos := range tc.released {
				ld.views[pos].Release()
			}
			// A standalone clone of every view keeps its buffer readable
			// after the view's Graph releases its own reference.
			clones := make([]*graph.Lazy, len(ld.views))
			graphs := make([]*graph.Graph, len(ld.views))
			for pos := range ld.views {
				if slices.Contains(tc.released, pos) || ld.encs[pos] == nil {
					continue
				}
				clones[pos] = ld.views[pos].Clone()
				graphs[pos] = ld.views[pos].Graph()
				if pos == 0 && tc.late != 0 {
					ld.decode(t, tc.late, encs[1])
				}
			}
			checkSharedSlabGraphs(t, ld, graphs, clones, tc.late)
		})
	}
}

func checkSharedSlabGraphs(t *testing.T, ld *slabLoad, graphs []*graph.Graph, clones []*graph.Lazy, late int) {
	t.Helper()
	encoded := make([][]byte, len(graphs))
	for pos, g := range graphs {
		if g == nil {
			continue
		}
		label := fmt.Sprintf("position %d", pos)
		want, err := graph.Decode(ld.encs[pos])
		if err != nil {
			t.Fatal(err)
		}
		checkSameGraph(t, label, g, want)
		if shared := late == 0 || pos != late; ld.slabs.Holds(g) != shared {
			t.Fatalf("%s: Graph from the load's slabs is %t, want %t", label, !shared, shared)
		}
		encoded[pos] = g.Encode()
	}
	unchanged := func(what string, except int) {
		t.Helper()
		for pos, g := range graphs {
			if g != nil && pos != except && !bytes.Equal(g.Encode(), encoded[pos]) {
				t.Fatalf("%s changed the Graph at position %d", what, pos)
			}
		}
	}
	for pos, g := range graphs {
		if g == nil {
			continue
		}
		checkAppendIsolated(t, fmt.Sprintf("position %d", pos), g)
		unchanged(fmt.Sprintf("appending to position %d", pos), -1)
	}

	for pos, g := range graphs {
		if g == nil {
			continue
		}
		for _, f := range [][]float32{g.NodeFeat, g.EdgeFeat, g.Pos, g.Y} {
			for i := range f {
				f[i] = -f[i] - 1
			}
		}
		for _, x := range [][]int32{g.EdgeSrc, g.EdgeDst} {
			for i := range x {
				x[i] = ^x[i]
			}
		}
		unchanged(fmt.Sprintf("mutating position %d", pos), pos)
		encoded[pos] = g.Encode()
	}
	for pos, c := range clones {
		if c != nil && !bytes.Equal(c.AppendTo(nil), ld.encs[pos]) {
			t.Fatalf("mutating the Graphs changed the buffer position %d's bytes arrived in", pos)
		}
	}

	for _, c := range clones {
		if c != nil {
			c.Release()
		}
	}
	for i, buf := range ld.bufs {
		if refs := buf.Refs(); refs != 0 {
			t.Fatalf("buffer %d has %d references after every view was consumed, want 0", i, refs)
		}
		for j, v := range buf.Bytes() {
			if v != bufarena.Poison {
				t.Fatalf("buffer %d byte %d = %#x: the final Release did not poison it", i, j, v)
			}
		}
	}
	unchanged("poisoning the source buffers", -1)
}

// TestSharedSlabConcurrentViews materializes alternate views of one load
// from two goroutines, one of them also releasing some of its views
// unmaterialized — its very first call among them, so a Release meets the
// sizing scan: whichever call sizes the slabs, the other's calls wait for
// it, take disjoint words, and every Graph is Decode's. Run it under -race
// at several processor counts.
func TestSharedSlabConcurrentViews(t *testing.T) {
	encs := slabCorpus(t)
	positions := make([]int, 64)
	for i := range positions {
		positions[i] = i % len(encs)
	}
	for round := 0; round < 20; round++ {
		ld := newSlabLoad(t, encs, positions)
		graphs := make([]*graph.Graph, len(positions))
		var wg sync.WaitGroup
		for lane := 0; lane < 2; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pos := lane; pos < len(positions); pos += 2 {
					if lane == 1 && pos%8 == 1 {
						ld.views[pos].Release()
						continue
					}
					graphs[pos] = ld.views[pos].Graph()
				}
			}()
		}
		wg.Wait()
		for pos, g := range graphs {
			if g == nil {
				continue
			}
			want, err := graph.Decode(encs[positions[pos]])
			if err != nil {
				t.Fatal(err)
			}
			checkSameGraph(t, fmt.Sprintf("round %d position %d", round, pos), g, want)
		}
		for i, buf := range ld.bufs {
			if refs := buf.Refs(); refs != 0 {
				t.Fatalf("round %d: buffer %d has %d references, want 0", round, i, refs)
			}
		}
	}
}
