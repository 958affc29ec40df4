package gnn

import (
	"math"
	"testing"

	"ddstore/internal/graph"
	"ddstore/internal/tensor"
	"ddstore/internal/vtime"
)

func TestGINForwardShapes(t *testing.T) {
	rng := vtime.NewRNG(1)
	b := testBatch(rng, 3, 0, 1)
	layer := NewGIN("g", 3, 5, rng)
	x := tensor.FromData(b.NumNodes, 3, b.NodeFeat)
	y, cache := layer.Forward(x, b)
	if y.Rows != b.NumNodes || y.Cols != 5 {
		t.Fatalf("output %dx%d", y.Rows, y.Cols)
	}
	dX := layer.Backward(y.Clone(), cache)
	if dX.Rows != b.NumNodes || dX.Cols != 3 {
		t.Fatalf("dX %dx%d", dX.Rows, dX.Cols)
	}
}

func TestGINSumAggregation(t *testing.T) {
	// Identity-ish check on the aggregation itself: with eps=0, agg row of
	// a node is its own features plus the sum of its in-neighbors'.
	g1 := &graph.Graph{
		ID: 0, NumNodes: 3, NodeFeatDim: 1,
		NodeFeat: []float32{1, 10, 100},
		EdgeSrc:  []int32{0, 1},
		EdgeDst:  []int32{2, 2},
		Y:        []float32{0},
	}
	b, err := graph.NewBatch([]*graph.Graph{g1})
	if err != nil {
		t.Fatal(err)
	}
	layer := NewGIN("g", 1, 2, vtime.NewRNG(2))
	x := tensor.FromData(3, 1, g1.NodeFeat)
	_, cache := layer.Forward(x, b)
	want := []float32{1, 10, 111} // node 2 receives 1 + 10
	for i, w := range want {
		if cache.agg.Data[i] != w {
			t.Fatalf("agg[%d] = %v, want %v", i, cache.agg.Data[i], w)
		}
	}
}

func TestGINGradCheck(t *testing.T) {
	rng := vtime.NewRNG(3)
	b := testBatch(rng, 3, 0, 1)
	layer := NewGIN("g", 3, 2, rng)
	layer.Eps = 0.3
	// Nudge the biases off zero so no pre-activation sits exactly on the
	// ReLU kink (where the finite-difference check is invalid).
	for _, p := range layer.Params() {
		if p.Name == "g.mlp1.b" || p.Name == "g.mlp2.b" {
			for i := range p.Value.Data {
				p.Value.Data[i] = 0.05 * float32(i+1)
			}
		}
	}
	x := tensor.FromData(b.NumNodes, 3, b.NodeFeat).Clone()
	target := make([]float32, b.NumNodes*2)
	for i := range target {
		target[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 {
		y, _ := layer.Forward(x, b)
		loss, _ := MSELoss(y, target)
		return loss
	}
	y, cache := layer.Forward(x, b)
	_, dY := MSELoss(y, target)
	dX := layer.Backward(dY, cache)
	checkParamGrads(t, forward, layer.Params(), 1e-3, 5e-2)
	checkInputGrad(t, forward, x, dX, 1e-3, 5e-2)
}

func TestGINIsolatedNodes(t *testing.T) {
	g := &graph.Graph{ID: 0, NumNodes: 2, NodeFeatDim: 2, NodeFeat: []float32{1, 2, 3, 4}, Y: []float32{0}}
	b, err := graph.NewBatch([]*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	layer := NewGIN("g", 2, 2, vtime.NewRNG(4))
	x := tensor.FromData(2, 2, g.NodeFeat)
	y, cache := layer.Forward(x, b)
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN output for edgeless graph")
		}
	}
	layer.Backward(y.Clone(), cache)
}

func TestGINCheaperThanPNA(t *testing.T) {
	gin := NewGIN("g", 32, 32, vtime.NewRNG(5))
	pna := NewPNA("p", 32, 32, 0, 1.2, vtime.NewRNG(5))
	if gin.FlopsForward(1000, 2000) >= pna.FlopsForward(1000, 2000) {
		t.Fatal("GIN should be cheaper than PNA per layer")
	}
}
