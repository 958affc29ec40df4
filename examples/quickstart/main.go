// Quickstart: create a simulated 8-rank world, build a DDStore over a
// synthetic molecular dataset, and load globally-shuffled batches with
// one-sided RMA.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ddstore"
)

func main() {
	// A dataset of 10,000 synthetic organic molecules with HOMO-LUMO-gap
	// labels. Samples are generated deterministically by id.
	dataset := ddstore.HomoLumo(ddstore.DatasetConfig{NumGraphs: 10000})

	// Eight ranks on a modeled Perlmutter: 2 nodes × 4 GPUs. The machine
	// model drives virtual-time accounting for every I/O and message.
	world, err := ddstore.NewWorld(8, 42, ddstore.WithMachine(ddstore.Perlmutter()))
	if err != nil {
		log.Fatal(err)
	}

	err = world.Run(func(c *ddstore.Comm) error {
		// Width 4 = two replica groups of 4 ranks; each group holds a full
		// copy of the dataset striped over its members.
		store, err := ddstore.Open(c, dataset, ddstore.StoreOptions{Width: 4})
		if err != nil {
			return err
		}
		lo, hi := store.LocalRange()
		if c.Rank() == 0 {
			fmt.Printf("store: %d samples, width=%d, %d replicas\n",
				store.Len(), store.Width(), store.Replicas())
		}
		fmt.Printf("rank %d holds samples [%d,%d) — %.1f MB in memory\n",
			c.Rank(), lo, hi, float64(store.MemoryBytes())/(1<<20))

		// A shuffled batch: ids anywhere in the dataset. Remote samples
		// arrive via MPI-style one-sided Gets from the owner's memory; the
		// loader is what training reads its batches through, and it builds
		// the batch straight from the samples' wire bytes.
		ids := []int64{1, 9999, 5000, 1234, 42, 7777, 2500, 8600}
		batch, _, err := (&ddstore.PlaneLoader{Plane: store}).LoadBatch(ids)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("rank 0 batch: %d graphs, %d atoms, %d bonds, target dim %d\n",
				batch.NumGraphs, batch.NumNodes, batch.NumEdges()/2, batch.YDim)
			st := store.Stats()
			fmt.Printf("rank 0 traffic: %d local reads, %d remote RMA gets\n",
				st.LocalReads, st.RemoteGets)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeled wall time: %v\n", world.MaxTime())
}
