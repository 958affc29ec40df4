package graph_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/graph"
	"ddstore/internal/vtime"
)

// wireCorpus is the differential corpus (the first 256 samples of every
// generator, the decode sweep's shapes and every way a tensor can be empty)
// plus the odd bit patterns — NaN payloads, both infinities, -0 — with
// edges that stay inside their graph, grouped into batches of samples that
// share their dims. The corpus's own odd-bit graph, whose edges are the
// extreme int32s, is left to TestBatchFromWireRefusesAndReleases.
func wireCorpus(t *testing.T) [][]*graph.Graph {
	t.Helper()
	n := 9
	odd := &graph.Graph{ID: -1, NumNodes: n, NodeFeatDim: 1, NodeFeat: oddFloats(n),
		EdgeSrc: []int32{0, 8, 3, 8}, EdgeDst: []int32{8, 0, 8, 4}, EdgeFeatDim: 3, EdgeFeat: oddFloats(12),
		Pos: oddFloats(3 * n), Y: oddFloats(n + 1)}
	groups := map[[3]int][]*graph.Graph{}
	var order [][3]int
	for _, c := range append(differentialCorpus(t), namedGraph{"odd bits, valid edges", odd}) {
		if c.name == "odd bit patterns" {
			continue
		}
		key := [3]int{c.g.NodeFeatDim, c.g.EdgeFeatDim, len(c.g.Y)}
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], c.g)
	}
	out := make([][]*graph.Graph, len(order))
	for i, key := range order {
		out[i] = groups[key]
	}
	return out
}

// wireLoad encodes graphs into a load's views over pooled buffers, one
// buffer per distinct sample, as a plane delivers them (slabs_test.go's
// slabLoad). A position names its sample; a repeat is a CloneInto of the
// sample's first position.
func wireLoad(t *testing.T, graphs []*graph.Graph, positions []int) (*slabLoad, []*graph.Lazy) {
	t.Helper()
	encs := make([][]byte, len(graphs))
	for i, g := range graphs {
		encs[i] = g.Encode()
	}
	ld := newSlabLoad(t, encs, positions)
	ptrs := make([]*graph.Lazy, len(ld.views))
	for i := range ld.views {
		ptrs[i] = &ld.views[i]
	}
	return ld, ptrs
}

// at returns the graphs of positions.
func at(graphs []*graph.Graph, positions []int) []*graph.Graph {
	out := make([]*graph.Graph, len(positions))
	for i, k := range positions {
		out[i] = graphs[k]
	}
	return out
}

// checkSameBatch holds got to the reference assembly want: every scalar and
// id equal, every tensor bit-equal and capacity-clipped, so that an append
// to one reaches none of its slab neighbours.
func checkSameBatch(t *testing.T, label string, got, want *graph.Batch) {
	t.Helper()
	if got.NumGraphs != want.NumGraphs || got.NumNodes != want.NumNodes || got.NodeFeatDim != want.NodeFeatDim ||
		got.EdgeFeatDim != want.EdgeFeatDim || got.YDim != want.YDim || got.Bytes() != want.Bytes() ||
		fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) {
		t.Fatalf("%s: scalars or ids differ:\n got %+v\nwant %+v", label, got, want)
	}
	same := func() bool {
		return sameFloats(got.NodeFeat, want.NodeFeat) && sameFloats(got.EdgeFeat, want.EdgeFeat) && sameFloats(got.Y, want.Y) &&
			sameInts(got.EdgeSrc, want.EdgeSrc) && sameInts(got.EdgeDst, want.EdgeDst) && sameInts(got.GraphIndex, want.GraphIndex)
	}
	if !same() {
		t.Fatalf("%s: tensors differ from the reference assembly", label)
	}
	_ = append(got.NodeFeat, 99)
	_ = append(got.EdgeFeat, 99)
	_ = append(got.Y, 99)
	_ = append(got.EdgeSrc, 99)
	_ = append(got.EdgeDst, 99)
	_ = append(got.GraphIndex, 99)
	if !same() {
		t.Fatalf("%s: appending to one batch tensor overwrote another", label)
	}
}

// checkReleased fails unless every buffer of the load has dropped its last
// reference.
func checkReleased(t *testing.T, label string, ld *slabLoad) {
	t.Helper()
	for i, buf := range ld.bufs {
		if refs := buf.Refs(); refs != 0 {
			t.Fatalf("%s: buffer %d has %d references after BatchFromWire, want 0", label, i, refs)
		}
	}
}

// TestBatchFromWireMatchesReference holds the wire front end to the
// append-per-edge assembly over the corpus: each group of samples as one
// batch, with duplicate positions, and every sample alone; every buffer
// reference is released.
func TestBatchFromWireMatchesReference(t *testing.T) {
	for _, graphs := range wireCorpus(t) {
		label := fmt.Sprintf("%d samples from id %d", len(graphs), graphs[0].ID)
		all := make([]int, len(graphs))
		for i := range all {
			all[i] = i
		}
		last := len(graphs) - 1
		for _, positions := range [][]int{all, {last, 0, last, 0, 0}} {
			ld, views := wireLoad(t, graphs, positions)
			got, err := graph.BatchFromWire(views)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := referenceNewBatch(at(graphs, positions))
			if err != nil {
				t.Fatal(err)
			}
			checkSameBatch(t, label, got, want)
			checkReleased(t, label, ld)
		}
		for i, g := range graphs {
			ld, views := wireLoad(t, graphs, []int{i})
			got, err := graph.BatchFromWire(views)
			if err != nil {
				t.Fatalf("%s alone: %v", label, err)
			}
			want, _ := referenceNewBatch([]*graph.Graph{g})
			checkSameBatch(t, fmt.Sprintf("sample %d alone", g.ID), got, want)
			checkReleased(t, label, ld)
		}
	}
}

// TestBatchFromWireMaterializedViews mixes views that are already
// materialized — one whose Graph was taken, a clone of it in a duplicate
// position, a standalone clone of a materialized view — with views that
// still hold bytes: the first go through their Graphs, the rest through
// their bytes, and the batch is the reference's either way.
func TestBatchFromWireMaterializedViews(t *testing.T) {
	rng := vtime.NewRNG(17)
	graphs := make([]*graph.Graph, 6)
	for i := range graphs {
		graphs[i] = graph.SizedGraph(rng, 4+8*i)
		graphs[i].ID = int64(i)
	}
	positions := []int{0, 1, 2, 3, 1, 4, 5}
	ld, views := wireLoad(t, graphs, positions)
	views[1].Graph() // position 4, its clone, still holds bytes
	views[3].Graph()
	views[5].Release()
	views[3].CloneInto(views[5]) // a clone of a materialized view
	positions[5] = 3
	views = append(views, views[3].Clone()) // and a standalone one
	positions = append(positions, 3)
	got, err := graph.BatchFromWire(views)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceNewBatch(at(graphs, positions))
	if err != nil {
		t.Fatal(err)
	}
	checkSameBatch(t, "materialized views", got, want)
	checkReleased(t, "materialized views", ld)
}

// TestBatchFromWireRefusesAndReleases: a batch that mixes dims, holds an
// edge endpoint outside its sample (negative or past the last node), or is
// empty is refused with NewBatch's error over the same graphs, and every
// view — the ones before the bad sample, already copied, and the ones
// after it — is released.
func TestBatchFromWireRefusesAndReleases(t *testing.T) {
	rng := vtime.NewRNG(23)
	ok := func(id int64) *graph.Graph {
		g := graph.SizedGraph(rng, 16)
		g.ID = id
		return g
	}
	edges := func(src, dst int32) *graph.Graph {
		g := ok(9)
		g.EdgeSrc[len(g.EdgeSrc)/2], g.EdgeDst[len(g.EdgeDst)/2] = src, dst
		return g
	}
	wide := ok(8)
	wide.NodeFeatDim, wide.NodeFeat = wide.NodeFeatDim+1, append(wide.NodeFeat, make([]float32, wide.NumNodes)...)
	narrow := ok(8)
	narrow.EdgeFeatDim, narrow.EdgeFeat = narrow.EdgeFeatDim-1, narrow.EdgeFeat[:len(narrow.EdgeSrc)*(narrow.EdgeFeatDim-1)]
	moreY := ok(8)
	moreY.Y = append(moreY.Y, 1)
	for name, bad := range map[string]*graph.Graph{
		"mixed node dims":          wide,
		"mixed edge dims":          narrow,
		"mixed target dims":        moreY,
		"endpoint past last node":  edges(17, 0),
		"negative endpoint":        edges(0, -1),
		"extreme endpoints":        edges(math.MinInt32, math.MaxInt32),
		"endpoint at the boundary": edges(3, 16),
	} {
		graphs := []*graph.Graph{ok(1), ok(2), bad, ok(3)}
		ld, views := wireLoad(t, graphs, []int{0, 1, 2, 3, 1})
		_, err := graph.BatchFromWire(views)
		_, want := graph.NewBatch(at(graphs, []int{0, 1, 2, 3, 1}))
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %v, NewBatch's %v", name, err, want)
		}
		checkReleased(t, name, ld)
	}

	if _, err := graph.BatchFromWire(nil); err == nil || err.Error() != "graph: empty batch" {
		t.Fatalf("empty batch: error %v", err)
	}
}

// TestBatchOwnsItsMemory is TestGraphOwnsItsMemory for a batch built from
// wire bytes: mutating every batch tensor leaves the buffer the bytes
// arrived in alone — read back through a clone taken earlier — and
// poisoning that buffer on its last Release leaves the batch alone.
func TestBatchOwnsItsMemory(t *testing.T) {
	for _, nodes := range []int{8, 64} {
		g := graph.SizedGraph(vtime.NewRNG(3), nodes)
		enc := g.Encode()
		ld, views := wireLoad(t, []*graph.Graph{g}, []int{0, 0})
		clone := views[0].Clone()
		b, err := graph.BatchFromWire(views)
		if err != nil {
			t.Fatal(err)
		}
		if refs := ld.bufs[0].Refs(); refs != 1 {
			t.Fatalf("buffer has %d references after BatchFromWire, want the clone's 1", refs)
		}
		for _, f := range [][]float32{b.NodeFeat, b.EdgeFeat, b.Y} {
			for i := range f {
				f[i] = -f[i] - 1
			}
		}
		for _, x := range [][]int32{b.EdgeSrc, b.EdgeDst, b.GraphIndex} {
			for i := range x {
				x[i] = ^x[i]
			}
		}
		if !bytes.Equal(clone.AppendTo(nil), enc) {
			t.Fatal("mutating the batch changed the buffer its bytes arrived in")
		}
		mutated := fmt.Sprint(*b)
		clone.Release()
		checkReleased(t, "after the clone's Release", ld)
		for i, v := range ld.bufs[0].Bytes() {
			if v != bufarena.Poison {
				t.Fatalf("byte %d = %#x: the final Release did not poison the buffer", i, v)
			}
		}
		if fmt.Sprint(*b) != mutated {
			t.Fatal("poisoning the source buffer changed the batch")
		}
	}
}

// TestBatchFromWireForeignEndian runs the wire front end the way a
// big-endian host does — the same copies plus the swap pass — by flipping
// the host-order flag over the encode and the batch (TestForeignEndianPass
// for the codec): the batch must be the reference's over the source graphs.
func TestBatchFromWireForeignEndian(t *testing.T) {
	rng := vtime.NewRNG(31)
	graphs := make([]*graph.Graph, 12)
	for i := range graphs {
		graphs[i] = graph.SizedGraph(rng, 1+5*i)
		graphs[i].ID = int64(i)
	}
	positions := []int{0, 3, 3, 11, 7, 0, 5}
	graph.FlipHostOrder()
	ld, views := wireLoad(t, graphs, positions)
	got, err := graph.BatchFromWire(views)
	graph.FlipHostOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceNewBatch(at(graphs, positions))
	if err != nil {
		t.Fatal(err)
	}
	checkSameBatch(t, "foreign endian", got, want)
	checkReleased(t, "foreign endian", ld)
	if bytes.Equal(graphs[0].Encode(), ld.encs[0]) {
		t.Fatal("the flipped flag changed no payload byte: the test would pass without the swap pass")
	}
}
