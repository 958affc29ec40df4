package ddp

import (
	"testing"
	"testing/quick"
)

func TestPermutationIsBijection(t *testing.T) {
	f := func(seed uint64, rawN uint16) bool {
		n := int64(rawN)%3000 + 1
		p := NewPermutation(n, seed)
		seen := make([]bool, n)
		for i := int64(0); i < n; i++ {
			v := p.Apply(i)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := NewPermutation(1000, 5)
	b := NewPermutation(1000, 5)
	for i := int64(0); i < 1000; i++ {
		if a.Apply(i) != b.Apply(i) {
			t.Fatalf("same-seed permutations differ at %d", i)
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	a := NewPermutation(1000, 5)
	c := NewPermutation(1000, 6)
	same := 0
	for i := int64(0); i < 1000; i++ {
		if a.Apply(i) == c.Apply(i) {
			same++
		}
	}
	if same > 30 { // expect ~1 collision by chance
		t.Fatalf("different seeds agree on %d/1000 positions", same)
	}
}

func TestPermutationActuallyShuffles(t *testing.T) {
	// A sanity check against the identity map: most elements must move.
	p := NewPermutation(10000, 9)
	fixed := 0
	for i := int64(0); i < 10000; i++ {
		if p.Apply(i) == i {
			fixed++
		}
	}
	if fixed > 50 {
		t.Fatalf("%d/10000 fixed points — not shuffling", fixed)
	}
}

func TestPermutationUniformity(t *testing.T) {
	// Where does position 0 land across seeds? Should spread over the
	// domain, roughly uniformly by quartile.
	const n = 1000
	buckets := make([]int, 4)
	for seed := uint64(0); seed < 2000; seed++ {
		v := NewPermutation(n, seed).Apply(0)
		buckets[v*4/n]++
	}
	for q, c := range buckets {
		if c < 350 || c > 650 {
			t.Fatalf("quartile %d got %d/2000 seeds — badly skewed", q, c)
		}
	}
}

func TestPermutationEdgeCases(t *testing.T) {
	one := NewPermutation(1, 3)
	if one.Apply(0) != 0 {
		t.Fatal("n=1 not identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Apply did not panic")
		}
	}()
	one.Apply(1)
}

func TestNewPermutationPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	NewPermutation(0, 1)
}

func TestViewsCompose(t *testing.T) {
	base := SliceIDs{10, 20, 30, 40, 50, 60}
	sub := subView{base: base, off: 2, nn: 3}
	if sub.Len() != 3 || sub.At(0) != 30 || sub.At(2) != 50 {
		t.Fatalf("subView wrong: %v", Collect(sub))
	}
	perm := NewPermutation(6, 4)
	pv := permView{base: base, perm: perm, off: 0, n: 6}
	seen := map[int64]bool{}
	for _, v := range Collect(pv) {
		seen[v] = true
	}
	for _, want := range base {
		if !seen[want] {
			t.Fatalf("permView lost element %d", want)
		}
	}
}

func TestRangeIDs(t *testing.T) {
	r := rangeIDs(5)
	if r.Len() != 5 || r.At(3) != 3 {
		t.Fatal("rangeIDs wrong")
	}
}

// Collect materializes a view.
func Collect(v IDs) []int64 {
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// SliceIDs adapts a concrete slice to the IDs interface.
type SliceIDs []int64

func (s SliceIDs) Len() int { return len(s) }

func (s SliceIDs) At(i int) int64 { return s[i] }
