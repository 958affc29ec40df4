package core

import (
	"fmt"
	"testing"

	"ddstore/internal/cff"
	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/pff"
)

// TestSourceEquivalence verifies the preloader-plugin claim: a store built
// from the generator, from real PFF files, and from real CFF containers
// serves byte-identical samples.
func TestSourceEquivalence(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 30})
	pffDir, cffDir := t.TempDir(), t.TempDir()
	if err := pff.Write(pffDir, ds, 0, 30); err != nil {
		t.Fatal(err)
	}
	if err := cff.Write(cffDir, ds, 3); err != nil {
		t.Fatal(err)
	}
	pffStore, err := pff.Open(pffDir)
	if err != nil {
		t.Fatal(err)
	}
	cffStore, err := cff.Open(cffDir)
	if err != nil {
		t.Fatal(err)
	}
	defer cffStore.Close()

	sources := map[string]SampleSource{
		"generator": ds,
		"pff":       pffStore,
		"cff":       cffStore,
	}
	ids := []int64{0, 29, 7, 15, 22, 3}
	encoded := map[string][][]byte{}
	for name, src := range sources {
		name, src := name, src
		runWorld(t, 4, cluster.Laptop(), func(c *comm.Comm) error {
			s, err := Open(c, src, Options{Width: 2})
			if err != nil {
				return err
			}
			got, _, err := loadGraphs(s, ids)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				var enc [][]byte
				for _, g := range got {
					enc = append(enc, g.Encode())
				}
				encoded[name] = enc
			}
			return c.Barrier()
		})
	}
	for name, enc := range encoded {
		for i := range ids {
			a, b := encoded["generator"][i], enc[i]
			if len(a) != len(b) {
				t.Fatalf("%s: sample %d size differs", name, ids[i])
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: sample %d byte %d differs", name, ids[i], j)
				}
			}
		}
	}
}

// TestPreloadRejectsMisbehavingSource guards against sources that return
// the wrong sample for an id.
func TestPreloadRejectsMisbehavingSource(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	bad := &misIDSource{Dataset: ds}
	runWorld(t, 2, nil, func(c *comm.Comm) error {
		if _, err := Open(c, bad, Options{}); err == nil {
			return fmt.Errorf("misbehaving source accepted")
		}
		return nil
	})
}

// misIDSource returns samples whose embedded ID disagrees with the
// requested id.
type misIDSource struct{ *datasets.Dataset }

func (m *misIDSource) ReadSample(id int64) (*graph.Graph, error) {
	g, err := m.Dataset.ReadSample(id)
	if err != nil {
		return nil, err
	}
	bad := *g
	bad.ID = id + 1
	return &bad, nil
}
