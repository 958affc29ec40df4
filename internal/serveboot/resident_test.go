package serveboot

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ddstore/internal/datasets"
)

// TestResidentBytesFollowOwnedShards: at boot and after every kind of
// membership transition, each preloaded owner holds exactly the shards it
// owns under the published generation — their encoded bytes in buffers
// within 1 % of that size, one end offset per owned id — and serves every
// owned id as the source's Encode(), in a slice an append cannot push into
// the next sample. Readers hammer the owners' chunks while each transition
// installs and drops shards under them.
func TestResidentBytesFollowOwnedShards(t *testing.T) {
	const n = 8400 // shards of 262 samples: a migration pulls each in two batches
	src := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	want := make([][]byte, n)
	for id := range want {
		g, err := src.Sample(int64(id))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = g.Encode()
	}
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			c := bootTestCluster(t, 4, n, func(cfg *Config) {
				cfg.Source = src
				cfg.Width = width
			})
			checkResident(t, c, want, "boot")
			during(t, c, want, func() error { _, err := c.AddOwner(); return err })
			checkResident(t, c, want, "AddOwner")
			during(t, c, want, func() error { return c.RemoveOwner(c.OwnerIDs()[1]) })
			checkResident(t, c, want, "RemoveOwner")
			during(t, c, want, func() error { return c.CrashOwner(c.OwnerIDs()[0]) })
			checkResident(t, c, want, "CrashOwner")
		})
	}
}

// during runs transition while a reader checks every sample the current
// owners return against want.
func during(t *testing.T, c *Cluster, want [][]byte, transition func() error) {
	t.Helper()
	var owners []*Owner
	for _, id := range c.OwnerIDs() {
		owners = append(owners, c.Owner(id))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			o, id := owners[rng.Intn(len(owners))], rng.Intn(len(want))
			if b, err := o.chunk.LocalSampleBytes(int64(id)); err == nil && !bytes.Equal(b, want[id]) {
				t.Errorf("%s served %d bytes for sample %d that are not its encoding", o.ID, len(b), id)
				return
			}
		}
	}()
	err := transition()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// checkResident compares every owner's resident shards with what it owns
// under the cluster's published generation.
func checkResident(t *testing.T, c *Cluster, want [][]byte, stage string) {
	t.Helper()
	c.mu.Lock()
	m := c.cur
	c.mu.Unlock()
	for _, oid := range c.OwnerIDs() {
		o := c.Owner(oid)
		mi := m.MemberIndex(oid)
		var owned, ownedBytes int64
		for _, sh := range m.Shards {
			if !slices.Contains(sh.Owners, mi) {
				if _, err := o.chunk.LocalSampleBytes(sh.Lo); err == nil {
					t.Fatalf("%s: %s still serves sample %d of shard [%d,%d) it does not own", stage, oid, sh.Lo, sh.Lo, sh.Hi)
				}
				continue
			}
			for id := sh.Lo; id < sh.Hi; id++ {
				b, err := o.chunk.LocalSampleBytes(id)
				if err != nil {
					t.Fatalf("%s: %s owns sample %d: %v", stage, oid, id, err)
				}
				if !bytes.Equal(b, want[id]) {
					t.Fatalf("%s: %s serves %d bytes for sample %d that are not its Encode()", stage, oid, len(b), id)
				}
				if cap(b) != len(b) {
					t.Fatalf("%s: %s serves sample %d with %d bytes of room past it", stage, oid, id, cap(b)-len(b))
				}
				_ = append(b, 0xff)
				owned++
				ownedBytes += int64(len(b))
			}
		}
		size, capacity := o.residentBytes()
		if size != ownedBytes {
			t.Fatalf("%s: %s holds %d bytes, its owned shards encode to %d", stage, oid, size, ownedBytes)
		}
		if capacity-size > size/100 {
			t.Fatalf("%s: %s holds %d bytes in %d of capacity, more than 1 %% over", stage, oid, size, capacity)
		}
		if r := o.Resident(); int64(r) != owned {
			t.Fatalf("%s: %s holds %d end offsets for %d owned ids", stage, oid, r, owned)
		}
	}
	// An append into a served slice reached no neighbour.
	for _, oid := range c.OwnerIDs() {
		o := c.Owner(oid)
		for id := range want {
			if b, err := o.chunk.LocalSampleBytes(int64(id)); err == nil && !bytes.Equal(b, want[id]) {
				t.Fatalf("%s: sample %d on %s changed after appends to its neighbours", stage, id, oid)
			}
		}
	}
}
