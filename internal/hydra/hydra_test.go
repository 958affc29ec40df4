package hydra

import (
	"math"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/optim"
	"ddstore/internal/vtime"
)

func smallConfig(nodeDim, edgeDim, outDim int) Config {
	return Config{
		NodeFeatDim: nodeDim,
		EdgeFeatDim: edgeDim,
		HiddenDim:   16,
		ConvLayers:  2,
		FCLayers:    2,
		OutputDim:   outDim,
		Seed:        7,
	}
}

func batchFrom(t *testing.T, ds *datasets.Dataset, ids ...int64) *graph.Batch {
	t.Helper()
	gs := make([]*graph.Graph, len(ids))
	for i, id := range ids {
		g, err := ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	b, err := graph.NewBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(3, 0, 100)
	if cfg.HiddenDim != 200 || cfg.ConvLayers != 6 || cfg.FCLayers != 3 || cfg.OutputDim != 100 {
		t.Fatalf("PaperConfig = %+v", cfg)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}

func TestDeterministicInitialization(t *testing.T) {
	a := New(smallConfig(3, 0, 1))
	b := New(smallConfig(3, 0, 1))
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param count differs")
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("same-seed models differ at %s[%d]", pa[i].Name, j)
			}
		}
	}
	c := New(Config{NodeFeatDim: 3, HiddenDim: 16, ConvLayers: 2, FCLayers: 2, OutputDim: 1, Seed: 8})
	diff := false
	pc := c.Params()
	for j := range pa[0].Value.Data {
		if pa[0].Value.Data[j] != pc[0].Value.Data[j] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestForwardShapes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	b := batchFrom(t, ds, 0, 1, 2, 3)
	m := New(smallConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()))
	pred, st := m.Forward(b)
	if pred.Rows != 4 || pred.Cols != 1 {
		t.Fatalf("pred %dx%d", pred.Rows, pred.Cols)
	}
	for _, v := range pred.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite prediction %v", v)
		}
	}
	if st == nil {
		t.Fatal("no forward state")
	}
}

func TestParamCountPaperScale(t *testing.T) {
	// The paper-scale model (hidden 200, 6 PNA + 3 FC) lands in the
	// millions of parameters — the gradient allreduce volume that matters
	// for GPU-Comm modeling.
	m := New(PaperConfig(3, 0, 100))
	n := m.NumParams()
	if n < 3_000_000 || n > 10_000_000 {
		t.Fatalf("paper-scale params = %d, want millions", n)
	}
	if m.GradBytes() != int64(n)*4 {
		t.Fatal("GradBytes inconsistent")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 64})
	m := New(smallConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()))
	opt := optim.NewAdamW(m.Params(), 1e-3)
	b := batchFrom(t, ds, 0, 1, 2, 3, 4, 5, 6, 7)
	first := m.EvalLoss(b)
	var last float64
	for step := 0; step < 150; step++ {
		opt.ZeroGrad()
		last = m.TrainStep(b)
		opt.Step()
	}
	if !(last < first*0.5) {
		t.Fatalf("loss did not halve: first %v, last %v", first, last)
	}
	if math.IsNaN(last) {
		t.Fatal("training diverged to NaN")
	}
}

func TestTrainingLearnsIsingEnergy(t *testing.T) {
	ds := datasets.Ising(datasets.Config{NumGraphs: 32})
	m := New(smallConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()))
	opt := optim.NewAdamW(m.Params(), 1e-3)
	b := batchFrom(t, ds, 0, 1, 2, 3)
	first := m.EvalLoss(b)
	var last float64
	for step := 0; step < 100; step++ {
		opt.ZeroGrad()
		last = m.TrainStep(b)
		opt.Step()
	}
	if !(last < first) {
		t.Fatalf("Ising loss did not improve: %v -> %v", first, last)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	m := New(smallConfig(3, 0, 2))
	// Fill gradients with recognizable values.
	rng := vtime.NewRNG(3)
	for _, p := range m.Params() {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = float32(rng.NormFloat64())
		}
	}
	flat := m.FlattenGrads(nil)
	if len(flat) != m.NumParams() {
		t.Fatalf("flat len %d, params %d", len(flat), m.NumParams())
	}
	// Unflatten with scale 2 must exactly double every gradient.
	want := make([]float32, len(flat))
	copy(want, flat)
	m.UnflattenGrads(flat, 2)
	got := m.FlattenGrads(nil)
	for i := range want {
		if got[i] != 2*want[i] {
			t.Fatalf("grad %d: %v != 2*%v", i, got[i], want[i])
		}
	}
	// Buffer reuse path.
	buf := make([]float32, m.NumParams())
	flat2 := m.FlattenGrads(buf)
	if &flat2[0] != &buf[0] {
		t.Fatal("FlattenGrads reallocated a sufficient buffer")
	}
}

func TestDDPReplicasStayInLockstep(t *testing.T) {
	// Two replicas with identical seeds, each seeing a different local
	// batch: after exchanging and averaging flattened gradients they must
	// have bit-identical weights — the DDP invariant.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 16})
	m1 := New(smallConfig(ds.NodeFeatDim(), 0, 1))
	m2 := New(smallConfig(ds.NodeFeatDim(), 0, 1))
	o1 := optim.NewAdamW(m1.Params(), 1e-3)
	o2 := optim.NewAdamW(m2.Params(), 1e-3)
	b1 := batchFrom(t, ds, 0, 1, 2, 3)
	b2 := batchFrom(t, ds, 4, 5, 6, 7)
	for step := 0; step < 5; step++ {
		o1.ZeroGrad()
		o2.ZeroGrad()
		m1.TrainStep(b1)
		m2.TrainStep(b2)
		g1 := m1.FlattenGrads(nil)
		g2 := m2.FlattenGrads(nil)
		sum := make([]float32, len(g1))
		for i := range sum {
			sum[i] = g1[i] + g2[i]
		}
		m1.UnflattenGrads(sum, 0.5)
		m2.UnflattenGrads(sum, 0.5)
		o1.Step()
		o2.Step()
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatalf("replicas diverged at %s[%d]", p1[i].Name, j)
			}
		}
	}
}

func TestFlopsPerBatchScales(t *testing.T) {
	m := New(smallConfig(3, 0, 1))
	small := m.FlopsPerBatch(100, 200, 4)
	big := m.FlopsPerBatch(1000, 2000, 40)
	if small <= 0 || big <= small {
		t.Fatalf("flops: small %v big %v", small, big)
	}
}

func TestEvalLossMatchesTrainLoss(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	m := New(smallConfig(ds.NodeFeatDim(), 0, 1))
	b := batchFrom(t, ds, 0, 1)
	eval := m.EvalLoss(b)
	train := m.TrainStep(b)
	if eval != train {
		t.Fatalf("EvalLoss %v != TrainStep loss %v", eval, train)
	}
}

func TestParamCountMatchesModel(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(3, 0, 1),
		smallConfig(4, 1, 100),
		PaperConfig(3, 0, 375),
	} {
		m := New(cfg)
		if got, want := ParamCount(cfg), m.NumParams(); got != want {
			t.Fatalf("cfg %+v: ParamCount %d != model %d", cfg, got, want)
		}
	}
}

func TestFlopsEstimateMatchesModel(t *testing.T) {
	cfg := smallConfig(4, 1, 10)
	m := New(cfg)
	if got, want := FlopsEstimate(cfg, 500, 900, 16), m.FlopsPerBatch(500, 900, 16); got != want {
		t.Fatalf("FlopsEstimate %v != model %v", got, want)
	}
}
