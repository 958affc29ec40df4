package graph_test

// The reference codec and batch assembly: the per-element, per-tensor code
// that the word-view codec (words.go) and the slab-built NewBatch replaced,
// kept as the oracle the differential tests compare against. It reads and
// writes the wire layout directly and shares no code with the package. The
// tests sit outside the package so that they can draw real shapes from
// internal/datasets, which imports graph.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ddstore/internal/bufarena"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/vtime"
)

const refHeaderSize = 4 + 8 + 6*4

func appendFloat32s(buf []byte, xs []float32) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return buf
}

func appendInt32s(buf []byte, xs []int32) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

func referenceEncode(g *graph.Graph) []byte {
	buf := binary.LittleEndian.AppendUint16(nil, 0xDD57)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.ID))
	hasPos := 0
	if g.Pos != nil {
		hasPos = 1
	}
	for _, n := range []int{g.NumNodes, g.NodeFeatDim, len(g.EdgeSrc), g.EdgeFeatDim, hasPos, len(g.Y)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	buf = appendFloat32s(buf, g.NodeFeat)
	buf = appendInt32s(buf, g.EdgeSrc)
	buf = appendInt32s(buf, g.EdgeDst)
	buf = appendFloat32s(buf, g.EdgeFeat)
	buf = appendFloat32s(buf, g.Pos)
	return appendFloat32s(buf, g.Y)
}

// fillFloat32s decodes the next n words of *data into their own tensor,
// nil when n is zero.
func fillFloat32s(n int, data *[]byte) []float32 {
	if n == 0 {
		return nil
	}
	dst := make([]float32, n)
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32((*data)[4*i:]))
	}
	*data = (*data)[4*n:]
	return dst
}

func fillInt32s(n int, data *[]byte) []int32 {
	if n == 0 {
		return nil
	}
	dst := make([]int32, n)
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32((*data)[4*i:]))
	}
	*data = (*data)[4*n:]
	return dst
}

// referenceDecode decodes exactly one valid encoded graph.
func referenceDecode(t *testing.T, data []byte) *graph.Graph {
	t.Helper()
	count := func(off int) int { return int(binary.LittleEndian.Uint32(data[off:])) }
	g := &graph.Graph{
		ID:          int64(binary.LittleEndian.Uint64(data[4:])),
		NumNodes:    count(12),
		NodeFeatDim: count(16),
		EdgeFeatDim: count(24),
	}
	numEdges, lenY := count(20), count(32)
	nPos := 0
	if count(28) != 0 {
		nPos = 3 * g.NumNodes
	}
	p := data[refHeaderSize:]
	g.NodeFeat = fillFloat32s(g.NumNodes*g.NodeFeatDim, &p)
	g.EdgeSrc = fillInt32s(numEdges, &p)
	g.EdgeDst = fillInt32s(numEdges, &p)
	g.EdgeFeat = fillFloat32s(numEdges*g.EdgeFeatDim, &p)
	g.Pos = fillFloat32s(nPos, &p)
	g.Y = fillFloat32s(lenY, &p)
	if len(p) != 0 {
		t.Fatalf("reference decoder left %d bytes", len(p))
	}
	return g
}

// referenceNewBatch is the append-per-edge assembly: one allocation per
// tensor, offsets applied element by element.
func referenceNewBatch(graphs []*graph.Graph) (*graph.Batch, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("graph: empty batch")
	}
	b := &graph.Batch{
		NumGraphs:   len(graphs),
		NodeFeatDim: graphs[0].NodeFeatDim,
		EdgeFeatDim: graphs[0].EdgeFeatDim,
		YDim:        len(graphs[0].Y),
		NodeFeat:    []float32{},
		EdgeSrc:     []int32{},
		EdgeDst:     []int32{},
		EdgeFeat:    []float32{},
		GraphIndex:  []int32{},
		Y:           []float32{},
		IDs:         []int64{},
	}
	for _, g := range graphs {
		if g.NodeFeatDim != b.NodeFeatDim {
			return nil, fmt.Errorf("graph: batch mixes node feature dims %d and %d", b.NodeFeatDim, g.NodeFeatDim)
		}
		if g.EdgeFeatDim != b.EdgeFeatDim {
			return nil, fmt.Errorf("graph: batch mixes edge feature dims %d and %d", b.EdgeFeatDim, g.EdgeFeatDim)
		}
		if len(g.Y) != b.YDim {
			return nil, fmt.Errorf("graph: batch mixes target dims %d and %d", b.YDim, len(g.Y))
		}
	}
	offset := int32(0)
	for gi, g := range graphs {
		b.NodeFeat = append(b.NodeFeat, g.NodeFeat...)
		for i := range g.EdgeSrc {
			b.EdgeSrc = append(b.EdgeSrc, g.EdgeSrc[i]+offset)
			b.EdgeDst = append(b.EdgeDst, g.EdgeDst[i]+offset)
		}
		b.EdgeFeat = append(b.EdgeFeat, g.EdgeFeat...)
		for i := 0; i < g.NumNodes; i++ {
			b.GraphIndex = append(b.GraphIndex, int32(gi))
		}
		b.Y = append(b.Y, g.Y...)
		b.IDs = append(b.IDs, g.ID)
		offset += int32(g.NumNodes)
	}
	b.NumNodes = int(offset)
	return b, nil
}

// sameFloats reports whether a and b agree in nil-ness, length and every
// bit: NaN payloads and the sign of zero count.
func sameFloats(a, b []float32) bool {
	return (a == nil) == (b == nil) && bytes.Equal(appendFloat32s(nil, a), appendFloat32s(nil, b))
}

func sameInts(a, b []int32) bool {
	return (a == nil) == (b == nil) && bytes.Equal(appendInt32s(nil, a), appendInt32s(nil, b))
}

func checkSameGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.ID != want.ID || got.NumNodes != want.NumNodes ||
		got.NodeFeatDim != want.NodeFeatDim || got.EdgeFeatDim != want.EdgeFeatDim {
		t.Fatalf("%s: scalars %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			got.ID, got.NumNodes, got.NodeFeatDim, got.EdgeFeatDim,
			want.ID, want.NumNodes, want.NodeFeatDim, want.EdgeFeatDim)
	}
	checkTensor(t, label, "NodeFeat", got.NodeFeat, want.NodeFeat, sameFloats)
	checkTensor(t, label, "EdgeSrc", got.EdgeSrc, want.EdgeSrc, sameInts)
	checkTensor(t, label, "EdgeDst", got.EdgeDst, want.EdgeDst, sameInts)
	checkTensor(t, label, "EdgeFeat", got.EdgeFeat, want.EdgeFeat, sameFloats)
	checkTensor(t, label, "Pos", got.Pos, want.Pos, sameFloats)
	checkTensor(t, label, "Y", got.Y, want.Y, sameFloats)
}

func checkTensor[T float32 | int32](t *testing.T, label, name string, got, want []T, same func(a, b []T) bool) {
	t.Helper()
	if !same(got, want) {
		t.Fatalf("%s: %s differs from the reference decoder (len %d nil %t, reference len %d nil %t)",
			label, name, len(got), got == nil, len(want), want == nil)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: %s has cap %d over len %d: an append would reach its slab neighbour", label, name, cap(got), len(got))
	}
}

// checkAppendIsolated appends to every tensor of g and checks that no other
// tensor moved: the views are clipped, so each append must reallocate.
func checkAppendIsolated(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	before := g.Encode()
	_ = append(g.NodeFeat, 99)
	_ = append(g.EdgeSrc, 99)
	_ = append(g.EdgeDst, 99)
	_ = append(g.EdgeFeat, 99)
	_ = append(g.Pos, 99)
	_ = append(g.Y, 99)
	if !bytes.Equal(g.Encode(), before) {
		t.Fatalf("%s: appending to one tensor changed another", label)
	}
}

// oddBits are float32 bit patterns a value-level comparison or a float
// conversion could lose: quiet and signalling NaNs with payloads, both
// infinities, negative zero, a denormal, and the largest finite value.
var oddBits = []uint32{
	0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF,
	0x7F800000, 0xFF800000, 0x80000000, 0x00000001, 0x7F7FFFFF,
}

func oddFloats(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(oddBits[i%len(oddBits)])
	}
	return out
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// differentialCorpus is the first 256 samples of every dataset generator,
// the decode sweep's shapes, every way a tensor can be empty, and the bit
// patterns above in every float tensor with the extreme int32s as edges.
func differentialCorpus(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	cfg := datasets.Config{NumGraphs: 256}
	for _, ds := range []*datasets.Dataset{
		datasets.Ising(cfg), datasets.HomoLumo(cfg), datasets.AISDExDiscrete(cfg), datasets.AISDExSmooth(cfg),
	} {
		for id := int64(0); id < int64(ds.Len()); id++ {
			g, err := ds.Sample(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedGraph{fmt.Sprintf("%s/%d", ds.Name(), id), g})
		}
	}
	rng := vtime.NewRNG(11)
	for _, nodes := range []int{8, 64, 256} {
		out = append(out, namedGraph{fmt.Sprintf("sized/%d", nodes), graph.SizedGraph(rng, nodes)})
	}
	n := len(oddBits)
	return append(out,
		namedGraph{"empty", &graph.Graph{ID: 9}},
		namedGraph{"nodes without features", &graph.Graph{ID: 1, NumNodes: 4}},
		namedGraph{"only targets", &graph.Graph{ID: 2, Y: []float32{1, 2, 3}}},
		namedGraph{"only positions", &graph.Graph{ID: 3, NumNodes: 1, Pos: []float32{1, 2, 3}}},
		namedGraph{"empty non-nil positions", &graph.Graph{ID: 4, Pos: []float32{}}},
		namedGraph{"edges without features", &graph.Graph{ID: 5, NumNodes: 2, NodeFeatDim: 1,
			NodeFeat: []float32{1, 2}, EdgeSrc: []int32{0, 1}, EdgeDst: []int32{1, 0}, Y: []float32{7}}},
		namedGraph{"edges only", &graph.Graph{ID: 6, NumNodes: 2, EdgeSrc: []int32{0}, EdgeDst: []int32{1},
			EdgeFeatDim: 2, EdgeFeat: []float32{1, 2}}},
		namedGraph{"odd bit patterns", &graph.Graph{ID: -1, NumNodes: n, NodeFeatDim: 1, NodeFeat: oddFloats(n),
			EdgeSrc: []int32{math.MinInt32, -1, 0, math.MaxInt32}, EdgeDst: []int32{math.MaxInt32, 0, -1, math.MinInt32},
			EdgeFeatDim: 3, EdgeFeat: oddFloats(12), Pos: oddFloats(3 * n), Y: oddFloats(n + 1)}},
	)
}

// TestCodecMatchesReference is the differential test of the word-view
// codec: Encode is byte-identical to the per-element encoder, and Decode
// and DecodeLazy+Graph each produce what the per-element, per-tensor
// decoder does — every field bit-equal, the same tensors nil,
// cap == len on every tensor, and an append to one leaving the rest alone.
func TestCodecMatchesReference(t *testing.T) {
	for _, c := range differentialCorpus(t) {
		enc := c.g.Encode()
		if !bytes.Equal(enc, referenceEncode(c.g)) {
			t.Fatalf("%s: Encode differs from the reference encoder", c.name)
		}
		if len(enc) != c.g.EncodedSize() {
			t.Fatalf("%s: Encode wrote %d bytes, EncodedSize says %d", c.name, len(enc), c.g.EncodedSize())
		}
		want := referenceDecode(t, enc)

		eager, err := graph.Decode(enc)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		lz, err := graph.DecodeLazy(enc, nil)
		if err != nil {
			t.Fatalf("%s: DecodeLazy: %v", c.name, err)
		}
		for _, d := range []namedGraph{{"Decode", eager}, {"DecodeLazy", lz.Graph()}} {
			label := c.name + " via " + d.name
			checkSameGraph(t, label, d.g, want)
			checkAppendIsolated(t, label, d.g)
		}
	}
}

// TestGraphOwnsItsMemory is the ownership half of the word-view rule: the
// tensors are views of the codec's own slab, never of the buffer the bytes
// arrived in. Overwriting and then poisoning that buffer leaves a
// materialized graph alone, and mutating the graph leaves the buffer — read
// back through a clone taken earlier — alone. A small sample and a large
// one, because the slab is cloned differently on either side of a size
// (cloneWords in words.go).
func TestGraphOwnsItsMemory(t *testing.T) {
	for _, nodes := range []int{8, 64} {
		graphOwnsItsMemory(t, graph.SizedGraph(vtime.NewRNG(3), nodes).Encode())
	}
}

func graphOwnsItsMemory(t *testing.T, enc []byte) {
	buf := bufarena.Get(len(enc))
	wire := buf.Bytes()
	copy(wire, enc)
	lz, err := graph.DecodeLazy(wire, buf)
	if err != nil {
		t.Fatal(err)
	}
	clone := lz.Clone()
	g := lz.Graph()
	if refs := buf.Refs(); refs != 1 {
		t.Fatalf("buffer has %d references after Graph, want the clone's 1", refs)
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
	if got := clone.AppendTo(nil); !bytes.Equal(got, enc) {
		t.Fatal("mutating a materialized graph changed the buffer its bytes arrived in")
	}

	mutated := g.Encode()
	if bytes.Equal(mutated, enc) {
		t.Fatal("the mutation changed nothing: the test would pass on any implementation")
	}
	for i := range wire {
		wire[i] = 0xAA
	}
	if !bytes.Equal(g.Encode(), mutated) {
		t.Fatal("overwriting the source buffer changed a materialized graph")
	}
	clone.Release()
	if refs := buf.Refs(); refs != 0 {
		t.Fatalf("buffer has %d references after the last view's Release, want 0", refs)
	}
	for i, v := range wire {
		if v != bufarena.Poison {
			t.Fatalf("byte %d = %#x: the final Release did not poison the buffer", i, v)
		}
	}
	if !bytes.Equal(g.Encode(), mutated) {
		t.Fatal("poisoning the source buffer changed a materialized graph")
	}
}

// TestNewBatchMatchesReference holds the slab-built NewBatch to the
// append-per-edge assembly, field for field, on mixed sizes including
// zero-edge, zero-node and zero-width graphs, and checks that the tensors
// sharing a slab cannot reach each other through append.
func TestNewBatchMatchesReference(t *testing.T) {
	rng := vtime.NewRNG(17)
	mk := func(id int64, nodes, edges, nodeDim, edgeDim, yDim int) *graph.Graph {
		g := &graph.Graph{ID: id, NumNodes: nodes, NodeFeatDim: nodeDim, EdgeFeatDim: edgeDim}
		fill := func(n int) []float32 {
			if n == 0 {
				return nil
			}
			out := oddFloats(n)
			for i := 1; i < n; i += 2 {
				out[i] = float32(rng.NormFloat64())
			}
			return out
		}
		g.NodeFeat, g.EdgeFeat, g.Y = fill(nodes*nodeDim), fill(edges*edgeDim), fill(yDim)
		for i := 0; i < edges; i++ {
			g.EdgeSrc = append(g.EdgeSrc, int32(rng.Intn(nodes)))
			g.EdgeDst = append(g.EdgeDst, int32(rng.Intn(nodes)))
		}
		return g
	}
	cases := map[string][]*graph.Graph{
		"mixed sizes":      {mk(10, 5, 12, 3, 2, 1), mk(11, 1, 0, 3, 2, 1), mk(12, 0, 0, 3, 2, 1), mk(13, 40, 100, 3, 2, 1), mk(14, 2, 2, 3, 2, 1)},
		"zero-edge first":  {mk(1, 3, 0, 2, 1, 2), mk(2, 4, 9, 2, 1, 2)},
		"zero-node only":   {mk(1, 0, 0, 2, 1, 1), mk(2, 0, 0, 2, 1, 1)},
		"no edge features": {mk(1, 6, 10, 4, 0, 1), mk(2, 3, 0, 4, 0, 1), mk(3, 9, 20, 4, 0, 1)},
		"no node features": {mk(1, 6, 10, 0, 2, 1), mk(2, 3, 4, 0, 2, 1)},
		"no targets":       {mk(1, 2, 2, 1, 1, 0), mk(2, 3, 3, 1, 1, 0)},
		"single":           {mk(7, 17, 33, 5, 3, 4)},
		"all empty":        {{ID: 1}, {ID: 2}},
	}
	for name, gs := range cases {
		got, err := graph.NewBatch(gs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceNewBatch(gs)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got.NumGraphs != want.NumGraphs || got.NumNodes != want.NumNodes || got.NodeFeatDim != want.NodeFeatDim ||
			got.EdgeFeatDim != want.EdgeFeatDim || got.YDim != want.YDim || got.Bytes() != want.Bytes() {
			t.Fatalf("%s: scalars differ: %+v", name, got)
		}
		sameTensors := func() bool {
			return sameFloats(got.NodeFeat, want.NodeFeat) && sameFloats(got.EdgeFeat, want.EdgeFeat) && sameFloats(got.Y, want.Y) &&
				sameInts(got.EdgeSrc, want.EdgeSrc) && sameInts(got.EdgeDst, want.EdgeDst) && sameInts(got.GraphIndex, want.GraphIndex)
		}
		if !sameTensors() || fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) || (got.IDs == nil) != (want.IDs == nil) {
			t.Fatalf("%s: tensors differ from the reference assembly:\n got %+v\nwant %+v", name, got, want)
		}

		// Append to every tensor; its slab neighbours must not move.
		_ = append(got.NodeFeat, 99)
		_ = append(got.EdgeFeat, 99)
		_ = append(got.Y, 99)
		_ = append(got.EdgeSrc, 99)
		_ = append(got.EdgeDst, 99)
		_ = append(got.GraphIndex, 99)
		if !sameTensors() {
			t.Fatalf("%s: appending to one batch tensor overwrote another", name)
		}
	}

	// The dimension checks and their messages are the reference's.
	odd := func(mutate func(g *graph.Graph)) []*graph.Graph {
		g := mk(2, 3, 3, 2, 1, 1)
		mutate(g)
		return []*graph.Graph{mk(1, 3, 3, 2, 1, 1), g}
	}
	rejected := map[string][]*graph.Graph{
		"empty":            nil,
		"mixed node dims":  odd(func(g *graph.Graph) { g.NodeFeatDim = 3 }),
		"mixed edge dims":  odd(func(g *graph.Graph) { g.EdgeFeatDim = 2 }),
		"mixed target dim": odd(func(g *graph.Graph) { g.Y = []float32{1, 2} }),
	}
	for name, gs := range rejected {
		_, err := graph.NewBatch(gs)
		_, want := referenceNewBatch(gs)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: error %v, reference %v", name, err, want)
		}
	}
}
