// Width tuning example: the paper's §4.6 study in miniature. The width
// parameter w partitions N ranks into N/w replica groups; smaller widths
// mean more replicas and shorter fetch distances. This example measures
// per-sample load latency percentiles for each width on a modeled
// 16-node / 64-GPU Perlmutter — reproducing the Fig. 12 / Table 3 effect:
// width=2 cuts the median by ~80% versus the single-replica default.
//
//	go run ./examples/widthtune
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"ddstore"
)

func main() {
	const ranks = 64
	dataset := ddstore.AISDExDiscrete(ddstore.DatasetConfig{NumGraphs: 20000})

	fmt.Printf("per-sample load latency on modeled Perlmutter, %d GPUs (%d nodes):\n\n", ranks, ranks/4)
	fmt.Println("width  replicas   P50       P95       P99")

	var defaultMedian time.Duration
	for _, width := range []int{64, 32, 16, 8, 4, 2} {
		world, err := ddstore.NewWorld(ranks, 21, ddstore.WithMachine(ddstore.Perlmutter()))
		if err != nil {
			log.Fatal(err)
		}
		var all []time.Duration
		var mu sync.Mutex
		err = world.Run(func(c *ddstore.Comm) error {
			store, err := ddstore.Open(c, dataset, ddstore.StoreOptions{Width: width})
			if err != nil {
				return err
			}
			// Each rank loads one shuffled batch of 512 through the
			// trainer's loader and keeps its per-sample latencies.
			rng := int64(c.Rank()*2654435761 + 12345)
			ids := make([]int64, 512)
			for i := range ids {
				rng = rng*6364136223846793005 + 1442695040888963407
				ids[i] = (rng >> 11) % int64(store.Len())
				if ids[i] < 0 {
					ids[i] += int64(store.Len())
				}
			}
			_, lat, err := (&ddstore.PlaneLoader{Plane: store}).LoadBatch(ids)
			if err != nil {
				return err
			}
			mu.Lock()
			all = append(all, lat...)
			mu.Unlock()
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p := func(q float64) time.Duration { return all[int(q*float64(len(all)-1))] }
		p50 := p(0.50)
		if width == ranks {
			defaultMedian = p50
		}
		fmt.Printf("%5d  %8d   %-8v  %-8v  %-8v\n",
			width, ranks/width,
			p50.Round(time.Microsecond), p(0.95).Round(time.Microsecond), p(0.99).Round(time.Microsecond))
	}

	fmt.Printf("\nwidth=%d is the default (one replica over all ranks)\n", ranks)
	fmt.Printf("paper Table 3: width=2 reduces the median by 79-87%% — here the default median is %v\n", defaultMedian)
	fmt.Println("the memory cost is proportional to the replica count (N/width)")
}
