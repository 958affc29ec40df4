package ddstore

import (
	"fmt"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart does:
// build a world, open a store, load shuffled batches, train a tiny model.
func TestFacadeEndToEnd(t *testing.T) {
	dataset := HomoLumo(DatasetConfig{NumGraphs: 200})
	world, err := NewWorld(4, 7, WithMachine(Laptop()))
	if err != nil {
		t.Fatal(err)
	}
	err = world.Run(func(c *Comm) error {
		store, err := Open(c, dataset, StoreOptions{Width: 2})
		if err != nil {
			return err
		}
		if store.Replicas() != 2 {
			return fmt.Errorf("replicas = %d", store.Replicas())
		}
		batch, _, err := (&PlaneLoader{Plane: store}).LoadBatch([]int64{0, 150, 42, 199})
		if err != nil {
			return err
		}
		if batch.NumGraphs != 4 || fmt.Sprint(batch.IDs) != "[0 150 42 199]" {
			return fmt.Errorf("batch has %d graphs, ids %v", batch.NumGraphs, batch.IDs)
		}
		model := NewModel(ModelConfig{
			NodeFeatDim: dataset.NodeFeatDim(),
			HiddenDim:   8,
			ConvLayers:  1,
			FCLayers:    1,
			OutputDim:   dataset.OutputDim(),
			Seed:        1,
		})
		res, err := Train(c, TrainConfig{
			Loader:     &PlaneLoader{Plane: store},
			LocalBatch: 4,
			Epochs:     2,
			Seed:       2,
			Model:      model,
		})
		if err != nil {
			return err
		}
		if len(res.Epochs) != 2 {
			return fmt.Errorf("trained %d epochs", len(res.Epochs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.MaxTime() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestFacadeMachines(t *testing.T) {
	if Summit().GPUsPerNode != 6 || Perlmutter().GPUsPerNode != 4 {
		t.Fatal("machine models wrong")
	}
	if Summit().Name != "Summit" || Perlmutter().Name != "Perlmutter" || Laptop().Name != "Laptop" {
		t.Fatal("machine names wrong")
	}
}

func TestFacadeDatasets(t *testing.T) {
	for _, ds := range []*Dataset{
		Ising(DatasetConfig{NumGraphs: 5}),
		HomoLumo(DatasetConfig{NumGraphs: 5}),
		AISDExDiscrete(DatasetConfig{NumGraphs: 5}),
		AISDExSmooth(DatasetConfig{NumGraphs: 5, SpectrumBins: 20}),
	} {
		g, err := ds.Sample(0)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name(), err)
		}
		data := g.Encode()
		back, err := DecodeGraph(data)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name(), err)
		}
		if back.NumNodes != g.NumNodes {
			t.Fatalf("%s: decode mismatch", ds.Name())
		}
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("%d experiments registered, want 16 (every paper table and figure plus 3 ablations)", len(exps))
	}
	if _, ok := LookupExperiment("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := LookupExperiment("bogus"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestPaperModelConfig(t *testing.T) {
	cfg := PaperModelConfig(3, 0, 100)
	if cfg.HiddenDim != 200 || cfg.ConvLayers != 6 || cfg.FCLayers != 3 {
		t.Fatalf("paper config = %+v", cfg)
	}
}
