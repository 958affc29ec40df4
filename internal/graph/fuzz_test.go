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

// FuzzDecodeLazy holds the decoder the wire uses to the eager one: DecodeLazy
// accepts exactly the inputs Decode accepts, its verbatim re-encode is the
// input byte for byte, and materializing it encodes to what Decode's graph
// does. (That is the input itself up to the one header field with more than
// one spelling: any nonzero hasPos word reads as true and re-encodes as 1.)
func FuzzDecodeLazy(f *testing.F) {
	for _, seed := range fuzzCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		lz, lerr := DecodeLazy(data, nil)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Decode error %v, DecodeLazy error %v: they must accept the same inputs", err, lerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(lz.AppendTo(nil), data) {
			t.Fatal("a lazy view's re-encode differs from its input")
		}
		if !bytes.Equal(lz.Graph().Encode(), g.Encode()) {
			t.Fatal("the lazy view materializes a different graph than Decode")
		}
	})
}
