package hydra

import (
	"math"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/optim"
	"ddstore/internal/tensor"
)

func multiHeadConfig(nodeDim int) Config {
	return Config{
		NodeFeatDim: nodeDim,
		HiddenDim:   12,
		ConvLayers:  1,
		Heads: []Head{
			{Name: "peaks", OutputDim: 50, FCLayers: 1},
			{Name: "intensities", OutputDim: 50, FCLayers: 1, Weight: 2},
		},
		Seed: 3,
	}
}

func TestMultiHeadForwardShape(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 10})
	m := New(multiHeadConfig(ds.NodeFeatDim()))
	if m.cfg.TotalOutputDim() != 100 {
		t.Fatalf("TotalOutputDim = %d", m.cfg.TotalOutputDim())
	}
	b := batchFrom(t, ds, 0, 1, 2)
	pred, _ := m.Forward(b)
	if pred.Rows != 3 || pred.Cols != 100 {
		t.Fatalf("pred %dx%d", pred.Rows, pred.Cols)
	}
}

func TestMultiHeadLossWeights(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 10})
	m := New(multiHeadConfig(ds.NodeFeatDim()))
	b := batchFrom(t, ds, 0, 1)
	pred, _ := m.Forward(b)

	// Head 2 has weight 2: doubling its error must raise loss twice as fast
	// as doubling head 1's.
	loss0, _ := m.Loss(pred, b)
	bump := func(off, dim int) float64 {
		p := pred.Clone()
		for row := 0; row < p.Rows; row++ {
			for j := off; j < off+dim; j++ {
				p.Row(row)[j] += 1
			}
		}
		l, _ := m.Loss(p, b)
		return l - loss0
	}
	d1 := bump(0, 50)
	d2 := bump(50, 50)
	// Each bump adds weight * (2*diff*1 + 1)/... identical geometry, so the
	// ratio of added loss is the weight ratio once the cross terms cancel
	// approximately; verify d2 is clearly larger.
	if d2 < 1.5*d1 {
		t.Fatalf("head weights not applied: d1=%v d2=%v", d1, d2)
	}
}

func TestMultiHeadGradCheck(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 10})
	cfg := Config{
		NodeFeatDim: ds.NodeFeatDim(),
		HiddenDim:   6,
		ConvLayers:  1,
		Heads: []Head{
			{Name: "a", OutputDim: 50, FCLayers: 1},
			{Name: "b", OutputDim: 50, FCLayers: 0, Weight: 0.5},
		},
		Seed: 5,
	}
	m := New(cfg)
	b := batchFrom(t, ds, 0, 1)
	forward := func() float64 {
		pred, _ := m.Forward(b)
		loss, _ := m.Loss(pred, b)
		return loss
	}
	pred, st := m.Forward(b)
	_, dPred := m.Loss(pred, b)
	m.Backward(st, dPred)
	// Spot-check a subset of parameters (full check is expensive).
	params := m.Params()
	for _, p := range []int{0, len(params) / 2, len(params) - 1} {
		param := params[p]
		step := len(param.Value.Data)/7 + 1
		for i := 0; i < len(param.Value.Data); i += step {
			orig := param.Value.Data[i]
			const h = 1e-3
			param.Value.Data[i] = orig + h
			up := forward()
			param.Value.Data[i] = orig - h
			down := forward()
			param.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(param.Grad.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(math.Max(math.Abs(numeric), math.Abs(analytic)), 1)
			if diff > 0.05*scale {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", param.Name, i, analytic, numeric)
			}
		}
	}
}

func TestMultiHeadTrainingLearns(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 32})
	m := New(multiHeadConfig(ds.NodeFeatDim()))
	opt := optim.NewAdamW(m.Params(), 1e-3)
	b := batchFrom(t, ds, 0, 1, 2, 3)
	first := m.EvalLoss(b)
	var last float64
	for i := 0; i < 80; i++ {
		opt.ZeroGrad()
		last = m.TrainStep(b)
		opt.Step()
	}
	if !(last < first) {
		t.Fatalf("multi-head training did not improve: %v -> %v", first, last)
	}
}

func TestGINModelTrains(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	cfg := Config{
		NodeFeatDim: ds.NodeFeatDim(),
		HiddenDim:   16,
		ConvLayers:  2,
		Conv:        ConvGIN,
		FCLayers:    1,
		OutputDim:   1,
		Seed:        7,
	}
	m := New(cfg)
	if got, want := m.NumParams(), ParamCount(cfg); got != want {
		t.Fatalf("GIN ParamCount %d != model %d", want, got)
	}
	opt := optim.NewAdamW(m.Params(), 1e-3)
	b := batchFrom(t, ds, 0, 1, 2, 3)
	first := m.EvalLoss(b)
	var last float64
	for i := 0; i < 100; i++ {
		opt.ZeroGrad()
		last = m.TrainStep(b)
		opt.Step()
	}
	if !(last < first) {
		t.Fatalf("GIN training did not improve: %v -> %v", first, last)
	}
}

func TestGINFlopsEstimateMatches(t *testing.T) {
	cfg := Config{
		NodeFeatDim: 3, HiddenDim: 16, ConvLayers: 2, Conv: ConvGIN,
		FCLayers: 1, OutputDim: 4, Seed: 1,
	}
	m := New(cfg)
	if got, want := FlopsEstimate(cfg, 200, 400, 8), m.FlopsPerBatch(200, 400, 8); got != want {
		t.Fatalf("FlopsEstimate %v != model %v", got, want)
	}
}

func TestMultiHeadParamCountMatches(t *testing.T) {
	cfg := multiHeadConfig(3)
	m := New(cfg)
	if got, want := ParamCount(cfg), m.NumParams(); got != want {
		t.Fatalf("ParamCount %d != model %d", got, want)
	}
}

func TestHeadsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad head accepted")
		}
	}()
	New(Config{NodeFeatDim: 3, HiddenDim: 8, ConvLayers: 1,
		Heads: []Head{{Name: "x", OutputDim: 0}}, Seed: 1})
}

func TestSingleHeadLossMatchesPlainMSE(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	m := New(smallConfig(ds.NodeFeatDim(), 0, 1))
	b := batchFrom(t, ds, 0, 1)
	pred := tensor.FromData(2, 1, []float32{1, 2})
	gotLoss, _ := m.Loss(pred, b)
	want := (math.Pow(1-float64(b.Y[0]), 2) + math.Pow(2-float64(b.Y[1]), 2)) / 2
	if math.Abs(gotLoss-want) > 1e-5 {
		t.Fatalf("single-head loss %v, want %v", gotLoss, want)
	}
}
