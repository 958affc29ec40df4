package graph_test

import (
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// BenchmarkDatasetShapes times the two post-arrival stages of a served
// sample — DecodeLazy+Graph, then NewBatch of 64 — on the shapes the
// benchmark's workloads carry: homolumo (≈1.4 KB a sample, train_shuffle
// and cache_zipf) and Ising (≈10.7 KB, rma_inproc).
func BenchmarkDatasetShapes(b *testing.B) {
	cfg := datasets.Config{NumGraphs: 256}
	for _, ds := range []*datasets.Dataset{datasets.HomoLumo(cfg), datasets.Ising(cfg)} {
		var encoded [][]byte
		var graphs []*graph.Graph
		var bytes int64
		for id := int64(0); id < int64(ds.Len()); id++ {
			g, err := ds.Sample(id)
			if err != nil {
				b.Fatal(err)
			}
			graphs = append(graphs, g)
			encoded = append(encoded, g.Encode())
			bytes += int64(len(encoded[id]))
		}
		b.Run("materialize/"+ds.Name(), func(b *testing.B) {
			b.SetBytes(bytes / int64(len(encoded)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lz, err := graph.DecodeLazy(encoded[i&255], nil)
				if err != nil {
					b.Fatal(err)
				}
				if lz.Graph() == nil {
					b.Fatal("nil graph")
				}
			}
		})
		b.Run("newbatch64/"+ds.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.NewBatch(graphs[(i&3)*64:][:64]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+ds.Name(), func(b *testing.B) {
			b.SetBytes(bytes / int64(len(encoded)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphs[i&255].Encode()
			}
		})
	}
}
