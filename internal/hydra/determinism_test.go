package hydra

import (
	"math"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/tensor"
)

// TestHydraLossDeterministicAcrossParallelism runs the full model — six
// PNA convolutions, pooling, FC head, loss, backprop — under every worker
// count and asserts the loss and every parameter gradient are bit-identical
// to the serial run. This is the end-to-end guarantee the kernel-level
// determinism tests compose into: multicore training must converge exactly
// like single-core training.
func TestHydraLossDeterministicAcrossParallelism(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 64})
	graphs := make([]*graph.Graph, 0, 16)
	for id := int64(0); id < 16; id++ {
		g, err := ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	batch, err := graph.NewBatch(graphs)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		NodeFeatDim: ds.NodeFeatDim(),
		EdgeFeatDim: ds.EdgeFeatDim(),
		HiddenDim:   32,
		ConvLayers:  3,
		FCLayers:    2,
		OutputDim:   ds.OutputDim(),
		Seed:        42,
	}

	run := func() (float64, []float32) {
		m := New(cfg) // deterministic init from Seed
		pred, st := m.Forward(batch)
		loss, dPred := m.Loss(pred, batch)
		m.Backward(st, dPred)
		return loss, m.FlattenGrads(nil)
	}

	tensor.SetParallelism(1)
	refLoss, refGrads := run()
	tensor.SetParallelism(0)
	for _, par := range []int{2, 3, 8} {
		tensor.SetParallelism(par)
		loss, grads := run()
		tensor.SetParallelism(0)
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("parallelism=%d: loss %v != serial %v (not bit-identical)", par, loss, refLoss)
		}
		if len(grads) != len(refGrads) {
			t.Fatalf("parallelism=%d: %d grads want %d", par, len(grads), len(refGrads))
		}
		for i := range grads {
			if math.Float32bits(grads[i]) != math.Float32bits(refGrads[i]) {
				t.Fatalf("parallelism=%d: grad[%d] = %x want %x (not bit-identical)",
					par, i, math.Float32bits(grads[i]), math.Float32bits(refGrads[i]))
			}
		}
	}
}
