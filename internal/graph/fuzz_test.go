package graph

import (
	"bytes"
	"testing"
)

// fuzzCorpus returns valid encodings to seed the fuzzer — with and without
// positions, empty edges, multi-target Y — followed by the header-only
// samples whose payload length wraps to zero.
func fuzzCorpus() [][]byte {
	gs := []*Graph{
		{ID: 0, NumNodes: 1, NodeFeatDim: 1, NodeFeat: []float32{1}, Y: []float32{0}},
		{ID: 7, NumNodes: 3, NodeFeatDim: 2, NodeFeat: make([]float32, 6),
			EdgeSrc: []int32{0, 1, 2}, EdgeDst: []int32{1, 2, 0},
			EdgeFeatDim: 1, EdgeFeat: []float32{1, 2, 3}, Y: []float32{4, 5}},
		{ID: 42, NumNodes: 2, NodeFeatDim: 1, NodeFeat: []float32{1, 2},
			Pos: []float32{0, 0, 0, 1, 1, 1}, Y: []float32{9}},
	}
	out := make([][]byte, len(gs))
	for i, g := range gs {
		out[i] = g.Encode()
	}
	for _, c := range overflowHeaders() {
		out = append(out, c.data)
	}
	return out
}

// FuzzDecodeGraph hammers the decoder with arbitrary bytes. Decode must
// never panic or over-allocate; when it does accept an input, the decoded
// graph must survive a re-encode/re-decode round trip byte-identically —
// the property the TCP data plane relies on when it frames chunks.
func FuzzDecodeGraph(f *testing.F) {
	for _, seed := range fuzzCorpus() {
		f.Add(seed)
		// Truncations and bit flips reach the interesting error paths fast.
		f.Add(seed[:len(seed)/2])
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			return
		}
		enc := g.Encode()
		g2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, g2.Encode()) {
			t.Fatal("encode/decode round trip is not a fixed point")
		}
		if g2.ID != g.ID || g2.NumNodes != g.NumNodes || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %+v vs %+v", g, g2)
		}
	})
}
