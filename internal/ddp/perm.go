package ddp

import (
	"fmt"
	"math/bits"
)

// Permutation is a seeded pseudorandom permutation of [0, n) with O(1)
// memory and O(1) expected Apply time, built from a 4-round Feistel network
// with cycle-walking.
//
// Why not Fisher-Yates? Every rank of a DDP job derives the *same* epoch
// permutation; materializing it costs O(n) per rank. In a real MPI job that
// is a few megabytes per process and irrelevant — but this runtime
// simulates up to 1536 ranks inside one process, where 1536 copies of a
// 200k-entry permutation is gigabytes. A format-preserving permutation
// gives every rank random access to the same shuffle for free.
type Permutation struct {
	n        int64
	halfBits uint
	keys     [4]uint64
}

// NewPermutation builds the permutation of [0, n) for a seed. It panics on
// non-positive n (a programming error).
func NewPermutation(n int64, seed uint64) Permutation {
	if n <= 0 {
		panic(fmt.Sprintf("ddp: permutation over %d elements", n))
	}
	// Feistel domain: the smallest even-bit-width power of two >= n.
	width := bits.Len64(uint64(n - 1))
	if width == 0 {
		width = 1
	}
	if width%2 == 1 {
		width++
	}
	p := Permutation{n: n, halfBits: uint(width / 2)}
	// Derive round keys from the seed (SplitMix64 steps).
	z := seed
	for i := range p.keys {
		z += 0x9E3779B97F4A7C15
		k := z
		k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9
		k = (k ^ (k >> 27)) * 0x94D049BB133111EB
		p.keys[i] = k ^ (k >> 31)
	}
	return p
}

// round is the Feistel round function: a cheap keyed mixer.
func round(x, key uint64) uint64 {
	x ^= key
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Apply maps i to its shuffled position. It panics if i is outside [0, n).
func (p Permutation) Apply(i int64) int64 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("ddp: permutation index %d out of [0,%d)", i, p.n))
	}
	mask := (uint64(1) << p.halfBits) - 1
	v := uint64(i)
	for {
		// One encryption pass over the power-of-two domain.
		l := v >> p.halfBits
		r := v & mask
		for _, key := range p.keys {
			l, r = r, l^(round(r, key)&mask)
		}
		v = l<<p.halfBits | r
		// Cycle-walk: if the image fell outside [0, n), encrypt again. The
		// domain is < 4n, so this terminates in O(1) expected steps.
		if int64(v) < p.n {
			return int64(v)
		}
	}
}

// IDs is random access to a sequence of sample ids. Implementations are
// cheap views — no materialized slices.
type IDs interface {
	Len() int
	At(i int) int64
}

// permView is the composition perm → base: element i is
// base.At(perm.Apply(off + i)).
type permView struct {
	base IDs
	perm Permutation
	off  int64
	n    int
}

func (v permView) Len() int { return v.n }

func (v permView) At(i int) int64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("ddp: view index %d out of [0,%d)", i, v.n))
	}
	return v.base.At(int(v.perm.Apply(v.off + int64(i))))
}

// rangeIDs is the identity view over [0, n).
type rangeIDs int

func (r rangeIDs) Len() int       { return int(r) }
func (r rangeIDs) At(i int) int64 { return int64(i) }

// subView is a contiguous window of another view.
type subView struct {
	base    IDs
	off, nn int
}

func (v subView) Len() int       { return v.nn }
func (v subView) At(i int) int64 { return v.base.At(v.off + i) }
