package graph

import (
	"bytes"
	"testing"
	"unsafe"

	"ddstore/internal/vtime"
)

func TestSwapWords(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{nil, nil},
		{[]byte{1, 2, 3}, []byte{1, 2, 3}}, // short of a word: untouched
		{[]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}},
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{4, 3, 2, 1, 8, 7, 6, 5, 9}},
	}
	for _, c := range cases {
		got := append([]byte(nil), c.in...)
		swapWords(got)
		if !bytes.Equal(got, c.want) {
			t.Errorf("swapWords(%v) = %v, want %v", c.in, got, c.want)
		}
		swapWords(got)
		if !bytes.Equal(got, c.in) {
			t.Errorf("swapWords twice on %v = %v, want the input back", c.in, got)
		}
	}
}

// TestForeignEndianPass runs the codec the way a big-endian host does —
// the same copies plus the swap pass — by flipping the host-order flag: the
// payload must come out as the native encoding with every word reversed
// (on a big-endian host that is the little-endian wire form), the header
// must not move, and decoding those bytes must give the graph back.
func TestForeignEndianPass(t *testing.T) {
	rng := vtime.NewRNG(31)
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, int64(i))
		native := g.Encode()

		hostLittleEndian = !hostLittleEndian
		foreign := g.Encode()
		got, err := Decode(foreign)
		hostLittleEndian = !hostLittleEndian
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(got, g) {
			t.Fatalf("graph %d: decode with the swap pass differs from the source", i)
		}
		want := append([]byte(nil), native...)
		swapWords(want[headerSize:])
		if !bytes.Equal(foreign, want) {
			t.Fatalf("graph %d: encode with the swap pass is not the native payload word-reversed", i)
		}
	}
}

// TestLazySize pins the hot path's one allocation: cache_zipf holds a Lazy
// per sample and never materializes, so the Lazy must not grow to carry the
// Graph or its slab.
func TestLazySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Lazy{}); got != 112 {
		t.Fatalf("Lazy is %d bytes, want 112", got)
	}
}
