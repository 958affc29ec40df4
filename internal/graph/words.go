package graph

// Word views: the codec's one representation decision, and the only file
// in the repository that imports unsafe.
//
// The codec payload is the six tensors as consecutive little-endian 32-bit
// words, which on a little-endian host is byte for byte the memory of a
// []float32 or []int32. So decode is one copy of the payload into a word
// slab whose typed sub-slices are the tensors, and encode is one append of
// each tensor's bytes, instead of a load, convert and store per element.
//
// The rule: a view is taken only of a slab the codec itself allocated (a
// load's shared tensor slab, which Slabs makes when it sizes them,
// cloneWords, for materialize, or a batch's two slabs, which copyWire
// fills), or of a caller's typed tensor for the duration of one append
// (AppendTo) — never of wire, pooled, cached or RMA-window bytes. That
// keeps three invariants:
//
//   - own slab only: a Graph owns its memory — in a load's shared slab,
//     together with the load's other Graphs, each its own stretch — and so
//     does a Batch, so Lazy.Graph and BatchFromWire can release the buffer
//     reference and a trainer mutating a tensor cannot reach a cache
//     entry, a recycled buffer or another sample;
//   - allocator-guaranteed alignment: a tensor is a []float32 or []int32
//     over a []uint32 slab, so every reinterpretation between them is of
//     4-byte words the allocator aligned. A shared slab is a []uint32 the
//     allocator made, and a view's stretch of it starts at a word offset;
//     a standalone slab starts at the first byte of a fresh allocation
//     (cloneWords), which the allocator aligns to at least the largest
//     power of two dividing its size — a multiple of four here; cloneWords
//     checks that and does not rely on it. Nothing is ever a byte offset
//     into someone else's buffer;
//   - header-bounded slicing: views reinterpret an ordinary, bounds-checked
//     sub-slice of the one slab and take its length; none is built from a
//     header count directly.
//
// `go test -race` turns on checkptr, which checks the alignment and the
// extent of every conversion below.

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// hostLittleEndian reports whether a word in memory already has the wire's
// byte order. Where it does not, the same code runs plus one swapWords pass
// over the copied bytes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// word is a 32-bit value the codec stores as one wire word.
type word interface{ float32 | int32 | uint32 }

// wordBytes returns the memory of xs as bytes, nil when xs is empty.
func wordBytes[T word](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
}

// appendCloneMin is the payload size from which cloneWords clones by
// appending. make + copy clears the slab and then overwrites it; an append
// onto nil allocates without the clear but goes through growslice, which
// costs more than clearing a small slab does. Measured where it matters,
// end to end, in alternating pairs: a 1.4 KB sample (train_shuffle) loads
// about 2 % faster through make + copy, a 10.7 KB one (rma_inproc) about
// 10 % faster through the append; a bare clone crosses over at 2-4 KB.
const appendCloneMin = 4 << 10

// cloneWords copies b, a whole number of words, into a fresh word slab: for
// a payload of appendCloneMin bytes or more by an append onto nil, whose
// word view is taken only once its first byte is seen to be word-aligned;
// otherwise — a small payload, or an allocator that ever hands back less
// than it promises — by make + copy of a []uint32.
func cloneWords(b []byte) []uint32 {
	if len(b) >= appendCloneMin {
		if c := append([]byte(nil), b...); uintptr(unsafe.Pointer(unsafe.SliceData(c)))%4 == 0 {
			return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(c))), len(b)/4)
		}
	}
	w := make([]uint32, len(b)/4)
	copy(wordBytes(w), b)
	return w
}

// viewWords returns the slab words w as a tensor: nil when empty, exactly
// as the per-tensor decoder produced them, and capacity-clipped to its
// length so appending to one tensor can never scribble over its slab
// neighbours.
func viewWords[T float32 | int32](w []uint32) []T {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// copyWire copies the first len(dst) words of the wire payload p into dst,
// in host order, and returns the rest of p: the one place a batch reads wire
// words, always into a tensor of its own slab.
func copyWire[T float32 | int32](dst []T, p []byte) []byte {
	b := wordBytes(dst)
	copy(b, p)
	if !hostLittleEndian {
		swapWords(b)
	}
	return p[len(b):]
}

// swapWords reverses the byte order of every 32-bit word of b in place;
// trailing bytes short of a word are left alone.
func swapWords(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		binary.LittleEndian.PutUint32(b, bits.ReverseBytes32(binary.LittleEndian.Uint32(b)))
	}
}
