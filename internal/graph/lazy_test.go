package graph

import (
	"bytes"
	"testing"

	"ddstore/internal/vtime"
)

// testRef counts Retain/Release calls so tests can assert on the lazy
// view's ownership transitions.
type testRef struct {
	retains  int
	releases int
}

func (r *testRef) Retain()  { r.retains++ }
func (r *testRef) Release() { r.releases++ }

func TestDecodeLazyMatchesEagerDecode(t *testing.T) {
	rng := vtime.NewRNG(7)
	for i := 0; i < 50; i++ {
		want := randomGraph(rng, int64(i))
		enc := want.Encode()
		lz, err := DecodeLazy(enc, nil)
		if err != nil {
			t.Fatalf("DecodeLazy: %v", err)
		}
		if lz.ID() != want.ID || lz.h.numNodes != want.NumNodes || lz.h.numEdges != len(want.EdgeSrc) {
			t.Fatalf("lazy header fields: id %d nodes %d edges %d, want %d %d %d",
				lz.ID(), lz.h.numNodes, lz.h.numEdges, want.ID, want.NumNodes, len(want.EdgeSrc))
		}
		if lz.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize = %d, want %d", lz.EncodedSize(), len(enc))
		}
		if lz.g != nil {
			t.Fatal("materialized before Graph()")
		}
		got := lz.Graph()
		if !graphsEqual(got, want) {
			t.Fatalf("lazy-materialized graph %d differs from source", i)
		}
		if lz.g == nil {
			t.Fatal("not materialized after Graph()")
		}
		if lz.Graph() != got {
			t.Fatal("Graph() not memoized")
		}
	}
}

// TestDecodeLazyRejectsCorruptHeaderBeforeMaterialize proves the
// acceptance criterion: a corrupt header is rejected by DecodeLazy itself
// — before any tensor is materialized and before a reference is taken.
func TestDecodeLazyRejectsCorruptHeaderBeforeMaterialize(t *testing.T) {
	enc := testGraph(1).Encode()
	corrupt := [][]byte{
		enc[:3],                  // truncated header
		enc[:len(enc)-1],         // truncated payload
		append([]byte{}, enc...), // bad magic (patched below)
	}
	corrupt[2][0] ^= 0xFF
	for _, c := range overflowHeaders() { // payload length wraps to zero
		corrupt = append(corrupt, c.data)
	}
	for i, data := range corrupt {
		ref := &testRef{}
		lz, err := DecodeLazy(data, ref)
		if err == nil {
			t.Fatalf("case %d: corrupt input accepted", i)
		}
		if lz != nil {
			t.Fatalf("case %d: non-nil Lazy alongside error", i)
		}
		if ref.retains != 0 || ref.releases != 0 {
			t.Fatalf("case %d: ref touched on error (retains %d, releases %d)", i, ref.retains, ref.releases)
		}
	}
	// Trailing garbage after a valid frame is also rejected (DecodeLazy is
	// exact-length, like Decode).
	if _, err := DecodeLazy(append(append([]byte{}, enc...), 0xEE), nil); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestLazyGraphReleasesRefOnce(t *testing.T) {
	ref := &testRef{}
	lz, err := DecodeLazy(testGraph(9).Encode(), ref)
	if err != nil {
		t.Fatal(err)
	}
	lz.Graph()
	lz.Graph()
	if ref.releases != 1 {
		t.Fatalf("releases = %d after materialize, want 1", ref.releases)
	}
	lz.Release() // after materialization: no double release
	if ref.releases != 1 {
		t.Fatalf("releases = %d after Release post-materialize, want 1", ref.releases)
	}
}

func TestLazyReleaseWithoutMaterialize(t *testing.T) {
	ref := &testRef{}
	lz, err := DecodeLazy(testGraph(9).Encode(), ref)
	if err != nil {
		t.Fatal(err)
	}
	lz.Release()
	lz.Release() // idempotent
	if ref.releases != 1 {
		t.Fatalf("releases = %d, want 1", ref.releases)
	}
}

// TestLazyAppendToBitIdentical proves the zero-decode re-encode path: a
// lazy view appends its retained wire bytes verbatim, and the fallback
// after materialization re-encodes to the identical frame.
func TestLazyAppendToBitIdentical(t *testing.T) {
	rng := vtime.NewRNG(21)
	for i := 0; i < 30; i++ {
		enc := randomGraph(rng, int64(i)).Encode()
		lz, err := DecodeLazy(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := lz.AppendTo(nil); !bytes.Equal(got, enc) {
			t.Fatalf("AppendTo before materialize differs at graph %d", i)
		}
		lz.Graph()
		if got := lz.AppendTo(nil); !bytes.Equal(got, enc) {
			t.Fatalf("AppendTo after materialize differs at graph %d", i)
		}
		// Appending onto an existing prefix keeps the prefix.
		pre := []byte{1, 2, 3}
		if got := lz.AppendTo(append([]byte{}, pre...)); !bytes.Equal(got[:3], pre) || !bytes.Equal(got[3:], enc) {
			t.Fatalf("AppendTo with prefix mangled output at graph %d", i)
		}
	}
}

// TestLazyCloneIndependentViews pins the duplicate-position contract:
// each clone holds its own reference and is consumed on its own, so
// releasing one view never invalidates a sibling.
func TestLazyCloneIndependentViews(t *testing.T) {
	want := testGraph(4)
	ref := &testRef{}
	lz, err := DecodeLazy(want.Encode(), ref)
	if err != nil {
		t.Fatal(err)
	}
	cl := lz.Clone()
	if ref.retains != 1 {
		t.Fatalf("retains = %d after Clone, want 1", ref.retains)
	}
	lz.Release()
	if ref.releases != 1 {
		t.Fatalf("releases = %d, want 1", ref.releases)
	}
	// The clone survives the original's release.
	if got := cl.Graph(); !graphsEqual(got, want) {
		t.Fatal("clone materialized wrong graph after sibling release")
	}
	if ref.releases != 2 {
		t.Fatalf("releases = %d after clone materialize, want 2", ref.releases)
	}
	// Cloning a materialized view shares the immutable graph, no ref.
	if cl.Clone().Graph() != cl.Graph() {
		t.Fatal("clone of materialized view does not share the graph")
	}
	if ref.retains != 1 {
		t.Fatalf("retains = %d after materialized clone, want 1", ref.retains)
	}
	// Cloning a released, unmaterialized view panics.
	lz2, _ := DecodeLazy(want.Encode(), nil)
	lz2.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of released Lazy did not panic")
		}
	}()
	lz2.Clone()
}

// TestDecodeLazyAllocs pins the headline number: header-validating a wire
// frame costs one allocation (the Lazy itself), down from the eager
// decoder's seven.
func TestDecodeLazyAllocs(t *testing.T) {
	enc := randomGraph(vtime.NewRNG(3), 1).Encode()
	allocs := testing.AllocsPerRun(200, func() {
		lz, err := DecodeLazy(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = lz.ID()
	})
	if allocs > 1 {
		t.Fatalf("DecodeLazy allocs/op = %v, want <= 1", allocs)
	}
}
