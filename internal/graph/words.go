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
// The rule: a view is taken only of a slab the codec itself just allocated
// (materialize), or of a caller's typed tensor for the duration of one
// append (AppendTo) — never of wire, pooled, cached or RMA-window bytes.
// That keeps three invariants:
//
//   - own slab only: a Graph owns its memory, so Lazy.Graph can release
//     the buffer reference and a trainer mutating a tensor cannot reach a
//     cache entry or a recycled buffer;
//   - allocator-guaranteed alignment: the slab is a []uint32 and a tensor
//     is a []float32 or []int32, so every reinterpretation is between
//     4-byte words the allocator aligned, never of a byte offset into
//     someone else's buffer;
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

// swapWords reverses the byte order of every 32-bit word of b in place;
// trailing bytes short of a word are left alone.
func swapWords(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		binary.LittleEndian.PutUint32(b, bits.ReverseBytes32(binary.LittleEndian.Uint32(b)))
	}
}
