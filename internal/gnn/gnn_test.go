package gnn

import (
	"math"
	"testing"

	"ddstore/internal/graph"
	"ddstore/internal/tensor"
	"ddstore/internal/vtime"
)

// testBatch builds a small two-graph batch with irregular degrees and
// continuous random features (no aggregator ties).
func testBatch(rng *vtime.RNG, nodeDim, edgeDim, yDim int) *graph.Batch {
	mk := func(id int64, n int, edges [][2]int32) *graph.Graph {
		g := &graph.Graph{
			ID:          id,
			NumNodes:    n,
			NodeFeatDim: nodeDim,
			NodeFeat:    make([]float32, n*nodeDim),
			EdgeFeatDim: edgeDim,
			Y:           make([]float32, yDim),
		}
		for i := range g.NodeFeat {
			g.NodeFeat[i] = float32(rng.NormFloat64())
		}
		for _, e := range edges {
			g.EdgeSrc = append(g.EdgeSrc, e[0])
			g.EdgeDst = append(g.EdgeDst, e[1])
		}
		g.EdgeFeat = make([]float32, len(g.EdgeSrc)*edgeDim)
		for i := range g.EdgeFeat {
			g.EdgeFeat[i] = float32(rng.NormFloat64())
		}
		for i := range g.Y {
			g.Y[i] = float32(rng.NormFloat64())
		}
		return g
	}
	g1 := mk(0, 4, [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 1}, {0, 2}})
	g2 := mk(1, 3, [][2]int32{{0, 1}, {2, 1}, {1, 0}})
	b, err := graph.NewBatch([]*graph.Graph{g1, g2})
	if err != nil {
		panic(err)
	}
	return b
}

func TestLinearForwardKnown(t *testing.T) {
	l := NewLinear("l", 2, 2, vtime.NewRNG(1))
	copy(l.W.Value.Data, []float32{1, 2, 3, 4})
	copy(l.B.Value.Data, []float32{10, 20})
	x := tensor.FromData(1, 2, []float32{1, 1})
	y := l.Forward(x)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Fatalf("Forward = %v", y.Data)
	}
}

func TestLinearParamsListed(t *testing.T) {
	l := NewLinear("l", 3, 4, vtime.NewRNG(1))
	ps := l.Params()
	if len(ps) != 2 || ps[0].Name != "l.W" || ps[1].Name != "l.b" {
		t.Fatalf("Params = %+v", ps)
	}
	if ps[0].Value.Rows != 3 || ps[0].Value.Cols != 4 {
		t.Fatal("W shape wrong")
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := vtime.NewRNG(2)
	l := NewLinear("l", 3, 2, rng)
	x := tensor.New(5, 3)
	x.Randomize(rng)
	target := make([]float32, 10)
	for i := range target {
		target[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 {
		y := l.Forward(x)
		loss, _ := MSELoss(y, target)
		return loss
	}
	// Analytic gradients.
	y := l.Forward(x)
	_, dY := MSELoss(y, target)
	dX := l.Backward(x, dY)

	checkParamGrads(t, forward, l.Params(), 1e-3, 2e-2)
	checkInputGrad(t, forward, x, dX, 1e-3, 2e-2)
}

func TestPNAGradCheck(t *testing.T) {
	rng := vtime.NewRNG(3)
	b := testBatch(rng, 3, 2, 1)
	layer := NewPNA("p", 3, 2, 2, 1.2, rng)
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

func TestPNAWithoutEdgeFeatures(t *testing.T) {
	rng := vtime.NewRNG(4)
	b := testBatch(rng, 3, 0, 1)
	layer := NewPNA("p", 3, 4, 0, 1.2, rng)
	if layer.Wedge != nil {
		t.Fatal("edge transform created for edgeDim=0")
	}
	x := tensor.FromData(b.NumNodes, 3, b.NodeFeat)
	y, cache := layer.Forward(x, b)
	if y.Rows != b.NumNodes || y.Cols != 4 {
		t.Fatalf("output %dx%d", y.Rows, y.Cols)
	}
	dX := layer.Backward(y.Clone(), cache)
	if dX.Rows != b.NumNodes || dX.Cols != 3 {
		t.Fatalf("dX %dx%d", dX.Rows, dX.Cols)
	}
}

func TestPNAIsolatedNodes(t *testing.T) {
	// A graph with no edges must not crash or produce NaNs.
	g := &graph.Graph{
		ID: 0, NumNodes: 3, NodeFeatDim: 2,
		NodeFeat: []float32{1, 2, 3, 4, 5, 6},
		Y:        []float32{1},
	}
	b, err := graph.NewBatch([]*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	layer := NewPNA("p", 2, 2, 0, 1.2, vtime.NewRNG(5))
	x := tensor.FromData(3, 2, g.NodeFeat)
	y, cache := layer.Forward(x, b)
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite output %v", v)
		}
	}
	dX := layer.Backward(y.Clone(), cache)
	for _, v := range dX.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN gradient for isolated nodes")
		}
	}
}

func TestPNADegreeScalers(t *testing.T) {
	layer := NewPNA("p", 2, 2, 0, 1.5, vtime.NewRNG(6))
	s1, s2, s3 := layer.scalers(0)
	if s1 != 1 || s2 != 0 || s3 != 0 {
		t.Fatalf("deg-0 scalers = %v %v %v", s1, s2, s3)
	}
	_, amp2, att2 := layer.scalers(2)
	_, amp8, att8 := layer.scalers(8)
	if amp8 <= amp2 {
		t.Fatal("amplification not increasing with degree")
	}
	if att8 >= att2 {
		t.Fatal("attenuation not decreasing with degree")
	}
	// amp * att == 1 by construction.
	if got := amp2 * att2; math.Abs(float64(got)-1) > 1e-5 {
		t.Fatalf("amp*att = %v", got)
	}
}

func TestMeanPoolKnown(t *testing.T) {
	g1 := &graph.Graph{ID: 0, NumNodes: 2, NodeFeatDim: 1, NodeFeat: []float32{2, 4}, Y: []float32{0}}
	g2 := &graph.Graph{ID: 1, NumNodes: 1, NodeFeatDim: 1, NodeFeat: []float32{10}, Y: []float32{0}}
	b, _ := graph.NewBatch([]*graph.Graph{g1, g2})
	x := tensor.FromData(3, 1, []float32{2, 4, 10})
	out := MeanPool(x, b)
	if out.Data[0] != 3 || out.Data[1] != 10 {
		t.Fatalf("MeanPool = %v", out.Data)
	}
	dOut := tensor.FromData(2, 1, []float32{6, 5})
	dX := MeanPoolBackward(dOut, b)
	if dX.Data[0] != 3 || dX.Data[1] != 3 || dX.Data[2] != 5 {
		t.Fatalf("MeanPoolBackward = %v", dX.Data)
	}
}

func TestMeanPoolGradCheck(t *testing.T) {
	rng := vtime.NewRNG(7)
	b := testBatch(rng, 2, 0, 1)
	x := tensor.FromData(b.NumNodes, 2, b.NodeFeat).Clone()
	target := []float32{1, -1, 0.5, 2}
	forward := func() float64 {
		loss, _ := MSELoss(MeanPool(x, b), target)
		return loss
	}
	_, dP := MSELoss(MeanPool(x, b), target)
	dX := MeanPoolBackward(dP, b)
	checkInputGrad(t, forward, x, dX, 1e-3, 2e-2)
}

func TestMSELossKnown(t *testing.T) {
	pred := tensor.FromData(1, 2, []float32{1, 3})
	loss, grad := MSELoss(pred, []float32{0, 1})
	if math.Abs(loss-2.5) > 1e-9 { // (1 + 4)/2
		t.Fatalf("loss = %v", loss)
	}
	if grad.Data[0] != 1 || grad.Data[1] != 2 { // 2*diff/2
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestMSELossZero(t *testing.T) {
	pred := tensor.FromData(1, 2, []float32{3, -1})
	loss, grad := MSELoss(pred, []float32{3, -1})
	if loss != 0 || grad.Data[0] != 0 || grad.Data[1] != 0 {
		t.Fatal("perfect prediction has nonzero loss/grad")
	}
}

// checkParamGrads compares analytic parameter gradients (already
// accumulated in the params) against central finite differences of forward.
func checkParamGrads(t *testing.T, forward func() float64, params []*Param, h, tol float64) {
	t.Helper()
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + float32(h)
			up := forward()
			p.Value.Data[i] = orig - float32(h)
			down := forward()
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data[i])
			if !gradClose(analytic, numeric, tol) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// checkInputGrad compares the analytic input gradient against finite
// differences.
func checkInputGrad(t *testing.T, forward func() float64, x *tensor.Matrix, dX *tensor.Matrix, h, tol float64) {
	t.Helper()
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + float32(h)
		up := forward()
		x.Data[i] = orig - float32(h)
		down := forward()
		x.Data[i] = orig
		numeric := (up - down) / (2 * h)
		analytic := float64(dX.Data[i])
		if !gradClose(analytic, numeric, tol) {
			t.Fatalf("input[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func gradClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return diff <= tol*scale
}
