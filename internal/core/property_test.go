package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/vtime"
)

// TestLoadPropertyRandomConfigs drives the full store through random
// (world size, width, dataset size, batch) configurations and checks the
// fundamental contract: Load returns exactly the requested samples, in
// order, bit-identical to the generator, for every rank.
func TestLoadPropertyRandomConfigs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vtime.NewRNG(seed)
		// World sizes with several divisors.
		sizes := []int{2, 4, 6, 8, 12}
		n := sizes[rng.Intn(len(sizes))]
		// A width that divides n.
		var widths []int
		for w := 1; w <= n; w++ {
			if n%w == 0 {
				widths = append(widths, w)
			}
		}
		width := widths[rng.Intn(len(widths))]
		total := n + rng.Intn(80) // at least one sample per chunk
		batch := 1 + rng.Intn(16)

		ds := datasets.HomoLumo(datasets.Config{NumGraphs: total})
		world, err := comm.NewWorld(n, seed^0xBEEF)
		if err != nil {
			return false
		}
		err = world.Run(func(c *comm.Comm) error {
			s, err := Open(c, ds, Options{Width: width})
			if err != nil {
				return err
			}
			r := vtime.NewRNG(seed + uint64(c.Rank()))
			ids := make([]int64, batch)
			for i := range ids {
				ids[i] = int64(r.Intn(total))
			}
			got, _, err := loadGraphs(s, ids)
			if err != nil {
				return err
			}
			for i, g := range got {
				want, err := ds.Sample(ids[i])
				if err != nil {
					return err
				}
				if g.ID != ids[i] || g.NumNodes != want.NumNodes || g.Y[0] != want.Y[0] {
					return fmt.Errorf("sample %d corrupted (n=%d w=%d)", ids[i], n, width)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryConsistencyAcrossRanks verifies every rank derives identical
// chunk boundaries and offsets from the collective registry build.
func TestRegistryConsistencyAcrossRanks(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 41})
	const n = 6
	boundaries := make([][]int64, n)
	runWorld(t, n, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 3})
		if err != nil {
			return err
		}
		boundaries[c.Rank()] = append([]int64(nil), s.starts...)
		return c.Barrier()
	})
	for r := 1; r < n; r++ {
		if len(boundaries[r]) != len(boundaries[0]) {
			t.Fatalf("rank %d has %d boundaries", r, len(boundaries[r]))
		}
		for i := range boundaries[0] {
			if boundaries[r][i] != boundaries[0][i] {
				t.Fatalf("rank %d boundary %d differs: %d vs %d",
					r, i, boundaries[r][i], boundaries[0][i])
			}
		}
	}
}

// TestIndexLengthsMatchEncodedSizes cross-checks the registry's per-sample
// lengths against the real encoded sizes (variable-length sample support).
func TestIndexLengthsMatchEncodedSizes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 25})
	runWorld(t, 5, nil, func(c *comm.Comm) error {
		s, err := Open(c, ds, Options{Width: 5})
		if err != nil {
			return err
		}
		for id := int64(0); id < 25; id++ {
			g, err := ds.Sample(id)
			if err != nil {
				return err
			}
			owner, err := s.OwnerOf(id)
			if err != nil {
				return err
			}
			if _, length := s.span(owner, id); length != g.EncodedSize() {
				return fmt.Errorf("index length %d != encoded size %d for sample %d",
					length, g.EncodedSize(), id)
			}
		}
		return nil
	})
}

// TestRegistryLocatesEverySample checks the registry over uneven chunks and
// over datasets smaller than the width, whose last members own nothing: on
// every rank, every id's span read through the window is the owner's own
// bytes for it, which are the sample's encoding, and every rank of a group
// reads each member's samples through that member's one array of end
// offsets.
func TestRegistryLocatesEverySample(t *testing.T) {
	for _, tc := range []struct{ n, w, total int }{
		{1, 1, 5}, {4, 4, 37}, {6, 3, 41}, {8, 2, 29},
		{4, 4, 3}, {6, 3, 2}, {8, 2, 1},
	} {
		t.Run(fmt.Sprintf("n=%d/w=%d/total=%d", tc.n, tc.w, tc.total), func(t *testing.T) {
			ds := datasets.HomoLumo(datasets.Config{NumGraphs: tc.total})
			stores := make([]*Store, tc.n)
			runWorld(t, tc.n, nil, func(c *comm.Comm) error {
				s, err := Open(c, ds, Options{Width: tc.w})
				if err != nil {
					return err
				}
				stores[c.Rank()] = s
				if err := c.Barrier(); err != nil { // every store is open
					return err
				}
				first := c.Rank() / tc.w * tc.w // the group's world rank 0
				if got, want := s.registryArrays(), stores[first].registryArrays(); !slices.Equal(got, want) {
					return fmt.Errorf("rank %d holds a registry of its own", c.Rank())
				}
				for id := int64(0); id < int64(tc.total); id++ {
					owner, err := s.OwnerOf(id)
					if err != nil {
						return err
					}
					want, err := stores[first+owner].LocalSampleBytes(id)
					if err != nil {
						return err
					}
					if enc, err := ds.AppendSample(nil, id); err != nil || !bytes.Equal(want, enc) {
						return fmt.Errorf("owner %d's bytes for sample %d are not its encoding (%v)", owner, id, err)
					}
					offset, length := s.span(owner, id)
					got := make([]byte, length)
					if err := s.win.LockShared(owner); err != nil {
						return err
					}
					err = s.win.Get(got, owner, offset)
					if uerr := s.win.Unlock(owner); err == nil {
						err = uerr
					}
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d: sample %d's span [%d,+%d) is not its owner's bytes", c.Rank(), id, offset, length)
					}
				}
				return nil
			})
		})
	}
}
