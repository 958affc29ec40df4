package graph

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"ddstore/internal/vtime"
)

// testGraph builds a small valid sample.
func testGraph(id int64) *Graph {
	return &Graph{
		ID:          id,
		NumNodes:    3,
		NodeFeatDim: 2,
		NodeFeat:    []float32{1, 2, 3, 4, 5, 6},
		EdgeSrc:     []int32{0, 1, 2},
		EdgeDst:     []int32{1, 2, 0},
		EdgeFeatDim: 1,
		EdgeFeat:    []float32{0.5, 0.6, 0.7},
		Pos:         []float32{0, 0, 0, 1, 0, 0, 0, 1, 0},
		Y:           []float32{42},
	}
}

// randomGraph generates a structurally valid random graph.
func randomGraph(rng *vtime.RNG, id int64) *Graph {
	n := 1 + rng.Intn(40)
	nf := rng.Intn(5)
	ef := rng.Intn(3)
	ne := rng.Intn(3 * n)
	g := &Graph{
		ID:          id,
		NumNodes:    n,
		NodeFeatDim: nf,
		NodeFeat:    make([]float32, n*nf),
		EdgeSrc:     make([]int32, ne),
		EdgeDst:     make([]int32, ne),
		EdgeFeatDim: ef,
		EdgeFeat:    make([]float32, ne*ef),
		Y:           make([]float32, 1+rng.Intn(8)),
	}
	for i := range g.NodeFeat {
		g.NodeFeat[i] = float32(rng.NormFloat64())
	}
	for i := range g.EdgeSrc {
		g.EdgeSrc[i] = int32(rng.Intn(n))
		g.EdgeDst[i] = int32(rng.Intn(n))
	}
	for i := range g.EdgeFeat {
		g.EdgeFeat[i] = float32(rng.NormFloat64())
	}
	for i := range g.Y {
		g.Y[i] = float32(rng.NormFloat64())
	}
	if rng.Intn(2) == 0 {
		g.Pos = make([]float32, n*3)
		for i := range g.Pos {
			g.Pos[i] = float32(rng.Float64())
		}
	}
	return g
}

func graphsEqual(a, b *Graph) bool {
	if a.ID != b.ID || a.NumNodes != b.NumNodes ||
		a.NodeFeatDim != b.NodeFeatDim || a.EdgeFeatDim != b.EdgeFeatDim {
		return false
	}
	eqF := func(x, y []float32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqI := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqF(a.NodeFeat, b.NodeFeat) && eqI(a.EdgeSrc, b.EdgeSrc) &&
		eqI(a.EdgeDst, b.EdgeDst) && eqF(a.EdgeFeat, b.EdgeFeat) &&
		eqF(a.Pos, b.Pos) && eqF(a.Y, b.Y)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := testGraph(77)
	data := g.Encode()
	if len(data) != g.EncodedSize() {
		t.Fatalf("Encode produced %d bytes, EncodedSize says %d", len(data), g.EncodedSize())
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", g, got)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	rng := vtime.NewRNG(123)
	f := func(seed uint64) bool {
		g := randomGraph(rng.Split(seed), int64(seed))
		got, err := Decode(g.Encode())
		if err != nil {
			return false
		}
		return graphsEqual(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	g := testGraph(1)
	data := g.Encode()

	if _, err := Decode(data[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Decode(data[:len(data)-4]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0xFF
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	badv := append([]byte(nil), data...)
	badv[2] = 0xEE
	if _, err := Decode(badv); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := Decode(append(data, 0)); err == nil {
		t.Error("trailing bytes accepted by Decode")
	}
	// Corrupt node count implying a huge payload must error, not panic.
	huge := append([]byte(nil), data...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Decode(huge); err == nil {
		t.Error("absurd node count accepted")
	}
	// Headers whose payload length wraps to zero must error in every
	// decoder, not pass as a 36-byte sample and panic in materialize.
	for _, c := range overflowHeaders() {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: accepted by Decode", c.name)
		}
		if lz, err := DecodeLazy(c.data, nil); err == nil {
			t.Errorf("%s: accepted by DecodeLazy", c.name)
			lz.Graph()
		}
	}
}

// overflowHeaders returns header-only samples whose counts make the payload
// length, summed in wrapping 64-bit arithmetic, come to exactly zero: one
// for each product in the sum.
func overflowHeaders() []namedBytes {
	mk := func(numNodes, nodeFeatDim, numEdges, edgeFeatDim, hasPos uint32) []byte {
		data := (&Graph{ID: 1}).Encode()
		for i, v := range []uint32{numNodes, nodeFeatDim, numEdges, edgeFeatDim, hasPos} {
			binary.LittleEndian.PutUint32(data[12+4*i:], v)
		}
		return data
	}
	return []namedBytes{
		{"numNodes*nodeFeatDim wraps", mk(1<<31, 1<<31, 0, 0, 0)},
		{"numEdges*(2+edgeFeatDim) wraps", mk(0, 0, 1<<31, 1<<31-2, 0)},
		{"numNodes*(nodeFeatDim+3) wraps", mk(1<<31, 1<<31-3, 0, 0, 1)},
	}
}

type namedBytes struct {
	name string
	data []byte
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := vtime.NewRNG(5)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := r.Intn(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := &Graph{ID: 9}
	got, err := Decode(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.NumNodes != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph mangled: %+v", got)
	}
}

func TestNewBatchOffsets(t *testing.T) {
	g1, g2 := testGraph(1), testGraph(2)
	b, err := NewBatch([]*Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGraphs != 2 || b.NumNodes != 6 || b.NumEdges() != 6 {
		t.Fatalf("batch shape: %d graphs %d nodes %d edges", b.NumGraphs, b.NumNodes, b.NumEdges())
	}
	// Second graph's edges must be shifted by 3.
	if b.EdgeSrc[3] != 3 || b.EdgeDst[3] != 4 {
		t.Fatalf("edge offsets wrong: %v -> %v", b.EdgeSrc, b.EdgeDst)
	}
	want := []int32{0, 0, 0, 1, 1, 1}
	for i, gi := range b.GraphIndex {
		if gi != want[i] {
			t.Fatalf("GraphIndex = %v", b.GraphIndex)
		}
	}
	if len(b.Y) != 2 || b.Y[0] != 42 || b.Y[1] != 42 {
		t.Fatalf("batch targets: %v", b.Y)
	}
	if b.IDs[0] != 1 || b.IDs[1] != 2 {
		t.Fatalf("batch ids: %v", b.IDs)
	}
	if b.Bytes() <= 0 {
		t.Fatal("batch bytes not positive")
	}
}

func TestNewBatchRejectsEmpty(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestNewBatchRejectsMixedDims(t *testing.T) {
	g1, g2 := testGraph(1), testGraph(2)
	g2.NodeFeatDim = 3
	g2.NodeFeat = make([]float32, 9)
	if _, err := NewBatch([]*Graph{g1, g2}); err == nil {
		t.Fatal("mixed node dims accepted")
	}
	g3 := testGraph(3)
	g3.Y = []float32{1, 2}
	if _, err := NewBatch([]*Graph{g1, g3}); err == nil {
		t.Fatal("mixed target dims accepted")
	}
}

// TestNewBatchRejectsEdgesOutsideTheirGraph feeds NewBatch samples whose
// edges name a node the sample does not have. The codec bounds the edge
// count by the bytes present, not the endpoints by the node count, so both
// decoders accept them; the batch must not. Past the end, edge 0→5 of a
// 2-node graph would become an edge into the next graph's nodes; a negative
// endpoint would index before the batch's first node.
func TestNewBatchRejectsEdgesOutsideTheirGraph(t *testing.T) {
	for name, edge := range map[string][2]int32{"0->5": {0, 5}, "-1->1": {-1, 1}, "1->2": {1, 2}} {
		bad := &Graph{ID: 1, NumNodes: 2, NodeFeatDim: 1, NodeFeat: []float32{1, 2},
			EdgeSrc: []int32{0, edge[0]}, EdgeDst: []int32{1, edge[1]}, Y: []float32{0}}
		next := &Graph{ID: 2, NumNodes: 4, NodeFeatDim: 1, NodeFeat: make([]float32, 4), Y: []float32{0}}
		enc := bad.Encode()
		eager, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		lz, err := DecodeLazy(enc, nil)
		if err != nil {
			t.Fatalf("%s: DecodeLazy: %v", name, err)
		}
		for via, g := range map[string]*Graph{"Decode": eager, "DecodeLazy": lz.Graph()} {
			if b, err := NewBatch([]*Graph{next, g, next}); err == nil {
				t.Errorf("%s via %s: batched as edges %v -> %v", name, via, b.EdgeSrc, b.EdgeDst)
			}
		}
	}
	// The bound is the graph's own node count, whichever position it holds
	// and however many edges it has: the last valid node is accepted.
	ok := &Graph{ID: 3, NumNodes: 5, EdgeSrc: []int32{0, 1, 2, 3, 4}, EdgeDst: []int32{4, 4, 4, 4, 4}}
	if _, err := NewBatch([]*Graph{{ID: 4, NumNodes: 1}, ok}); err != nil {
		t.Fatalf("in-range edges rejected: %v", err)
	}
}

func TestBatchEdgesAlwaysInRange(t *testing.T) {
	rng := vtime.NewRNG(99)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		count := 1 + r.Intn(8)
		gs := make([]*Graph, count)
		for i := range gs {
			g := randomGraph(r, int64(i))
			// Normalize dims so batching succeeds.
			g.NodeFeatDim = 2
			g.NodeFeat = make([]float32, g.NumNodes*2)
			g.EdgeFeatDim = 0
			g.EdgeFeat = nil
			g.Y = []float32{1}
			gs[i] = g
		}
		b, err := NewBatch(gs)
		if err != nil {
			return false
		}
		for i := range b.EdgeSrc {
			if b.EdgeSrc[i] < 0 || int(b.EdgeSrc[i]) >= b.NumNodes ||
				b.EdgeDst[i] < 0 || int(b.EdgeDst[i]) >= b.NumNodes {
				return false
			}
		}
		// GraphIndex must be monotonically non-decreasing covering all graphs.
		for i := 1; i < len(b.GraphIndex); i++ {
			if b.GraphIndex[i] < b.GraphIndex[i-1] {
				return false
			}
		}
		return len(b.GraphIndex) == b.NumNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	g := randomGraph(vtime.NewRNG(1), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Encode()
	}
}

func BenchmarkDecode(b *testing.B) {
	data := randomGraph(vtime.NewRNG(1), 0).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// batch128 is the benchmarks' batch: 128 random graphs sharing their dims.
func batch128() []*Graph {
	rng := vtime.NewRNG(2)
	gs := make([]*Graph, 128)
	for i := range gs {
		g := randomGraph(rng, int64(i))
		g.NodeFeatDim = 4
		g.NodeFeat = make([]float32, g.NumNodes*4)
		g.EdgeFeatDim = 0
		g.EdgeFeat = nil
		g.Y = []float32{1}
		gs[i] = g
	}
	return gs
}

func BenchmarkNewBatch128(b *testing.B) {
	gs := batch128()
	b.ReportAllocs()
	b.ResetTimer() // the alloc gate runs 100 iterations: keep the set-up's allocations out of them
	for i := 0; i < b.N; i++ {
		if _, err := NewBatch(gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchFromWire128 is BenchmarkNewBatch128's batch assembled
// straight from its wire bytes, as a loader does: validating each sample's
// header into a reused view, then BatchFromWire. The batch's four
// allocations are the only ones; no sample adds any.
func BenchmarkBatchFromWire128(b *testing.B) {
	gs := batch128()
	encs := make([][]byte, len(gs))
	for i, g := range gs {
		encs[i] = g.Encode()
	}
	views := make([]Lazy, len(gs))
	ptrs := make([]*Lazy, len(gs))
	for i := range views {
		ptrs[i] = &views[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, enc := range encs {
			if err := decodeLazyInto(&views[j], enc, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := BatchFromWire(ptrs); err != nil {
			b.Fatal(err)
		}
	}
}
