package ddp

import (
	"fmt"
	"reflect"
	"testing"

	"ddstore/internal/cff"
	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/pff"
	"ddstore/internal/pfs"
)

// TestLoadersBuildBatchesFromWire: both loaders — PlaneLoader over a
// core.Store, one-sided and two-sided, and SourceLoader over pff.Sim and
// cff.Sim — return, for ids that repeat, the batch NewBatch builds from the
// dataset's Graphs, field for field, with one latency per position. A
// batch stays intact while the loader's later loads reuse its buffers, and
// an empty load returns a nil batch (on the two-sided store, after entering
// the exchange with every other rank).
func TestLoadersBuildBatchesFromWire(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 120})
	loads := [][]int64{{3, 77, 3, 119, 0, 77, 77}, {5, 5}, {118, 2, 60, 2, 44}}
	want := make([]*graph.Batch, len(loads))
	for i, ids := range loads {
		gs := make([]*graph.Graph, len(ids))
		for j, id := range ids {
			var err error
			if gs[j], err = ds.Sample(id); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if want[i], err = graph.NewBatch(gs); err != nil {
			t.Fatal(err)
		}
	}
	const ranks = 3
	fs := pfs.New(cluster.Perlmutter(), ranks)
	sizes, err := pff.SampleSizes(ds)
	if err != nil {
		t.Fatal(err)
	}
	pff.RegisterSim(fs, ds, sizes)
	layout, err := cff.RegisterSim(fs, ds, sizes, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, method := range []string{"rma", "two-sided", "pff", "cff"} {
		w, err := comm.NewWorld(ranks, 5, comm.WithMachine(cluster.Perlmutter()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) error {
			var l Loader
			switch method {
			case "rma", "two-sided":
				f := core.FrameworkRMA
				if method == "two-sided" {
					f = core.FrameworkTwoSided
				}
				st, err := core.Open(c, ds, core.Options{Framework: f})
				if err != nil {
					return err
				}
				l = &PlaneLoader{Plane: st}
			case "pff":
				l = &SourceLoader{Source: pff.NewSim(fs, ds, sizes, c.Clock(), c.RNG())}
			case "cff":
				l = &SourceLoader{Source: cff.NewSim(fs, ds, layout, c.Clock(), c.RNG())}
			}
			got := make([]*graph.Batch, len(loads))
			for i, ids := range loads {
				b, lat, err := l.LoadBatch(ids)
				if err != nil {
					return err
				}
				if len(lat) != len(ids) {
					return fmt.Errorf("%d latencies for %d positions", len(lat), len(ids))
				}
				got[i] = b
			}
			if b, _, err := l.LoadBatch(nil); b != nil || err != nil {
				return fmt.Errorf("empty load: batch %v, error %v", b, err)
			}
			for i, b := range got {
				if !reflect.DeepEqual(b, want[i]) {
					return fmt.Errorf("load %d: batch differs from NewBatch over the dataset's Graphs:\n got %+v\nwant %+v", i, b, want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
}
