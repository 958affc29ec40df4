package optim

import (
	"math"
	"testing"

	"ddstore/internal/gnn"
	"ddstore/internal/tensor"
)

func newParam(vals ...float32) *gnn.Param {
	return &gnn.Param{
		Name:  "p",
		Value: tensor.FromData(1, len(vals), append([]float32(nil), vals...)),
		Grad:  tensor.New(1, len(vals)),
	}
}

func TestAdamWFirstStepMatchesClosedForm(t *testing.T) {
	// With a single gradient g, the bias-corrected first step is
	// lr * (g/|g| + wd*w) (up to eps).
	p := newParam(1.0)
	o := NewAdamW([]*gnn.Param{p}, 0.1)
	p.Grad.Data[0] = 0.5
	o.Step()
	want := 1.0 - 0.1*(1.0+0.01*1.0) // sign(g)=1 step plus decoupled decay
	if got := float64(p.Value.Data[0]); math.Abs(got-want) > 1e-4 {
		t.Fatalf("after first step: %v, want ~%v", got, want)
	}
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 — AdamW with small weight decay should get
	// close to 3.
	p := newParam(0)
	o := NewAdamW([]*gnn.Param{p}, 0.05)
	o.WeightDecay = 0
	for i := 0; i < 2000; i++ {
		w := float64(p.Value.Data[0])
		p.Grad.Data[0] = float32(2 * (w - 3))
		o.Step()
		o.ZeroGrad()
	}
	if got := float64(p.Value.Data[0]); math.Abs(got-3) > 0.05 {
		t.Fatalf("converged to %v, want ~3", got)
	}
}

func TestAdamWWeightDecayPullsToZero(t *testing.T) {
	p := newParam(5)
	o := NewAdamW([]*gnn.Param{p}, 0.01)
	o.WeightDecay = 0.5
	for i := 0; i < 500; i++ {
		// zero gradient: only decay acts
		o.Step()
	}
	if got := math.Abs(float64(p.Value.Data[0])); got > 0.5 {
		t.Fatalf("weight decay left |w| = %v", got)
	}
}

func TestZeroGrad(t *testing.T) {
	p := newParam(1)
	o := NewAdamW([]*gnn.Param{p}, 0.1)
	p.Grad.Data[0] = 7
	o.ZeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("grad not cleared")
	}
}

func TestPlateauDecaysAfterPatience(t *testing.T) {
	o := NewAdamW([]*gnn.Param{newParam(1)}, 1e-3)
	s := NewReduceLROnPlateau(o, 0.5, 2)
	if s.Step(1.0) {
		t.Fatal("first metric decayed")
	}
	// No improvement for patience+1 epochs triggers one decay.
	if s.Step(1.0) || s.Step(1.0) {
		t.Fatal("decayed within patience window")
	}
	if !s.Step(1.0) {
		t.Fatal("no decay after patience exceeded")
	}
	if o.LR != 5e-4 {
		t.Fatalf("LR = %v, want 5e-4", o.LR)
	}
	if s.Decays != 1 {
		t.Fatalf("Decays = %d", s.Decays)
	}
}

func TestPlateauImprovementResets(t *testing.T) {
	o := NewAdamW([]*gnn.Param{newParam(1)}, 1e-3)
	s := NewReduceLROnPlateau(o, 0.5, 1)
	s.Step(1.0)
	s.Step(1.0)       // bad=1
	s.Step(0.5)       // improvement resets
	s.Step(0.5)       // bad=1
	if s.Step(0.45) { // big improvement resets again
		t.Fatal("decay on improvement")
	}
	if o.LR != 1e-3 {
		t.Fatalf("LR changed to %v", o.LR)
	}
}

func TestPlateauRespectsMinLR(t *testing.T) {
	o := NewAdamW([]*gnn.Param{newParam(1)}, 2e-6)
	s := NewReduceLROnPlateau(o, 0.5, 0)
	s.MinLR = 1e-6
	s.Step(1.0)
	s.Step(1.0) // decay to 1e-6 (clamped)
	if o.LR != 1e-6 {
		t.Fatalf("LR = %v", o.LR)
	}
	if s.Step(1.0) {
		t.Fatal("decayed below MinLR")
	}
}

func TestPlateauValidation(t *testing.T) {
	o := NewAdamW([]*gnn.Param{newParam(1)}, 1e-3)
	for _, factor := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("factor %v accepted", factor)
				}
			}()
			NewReduceLROnPlateau(o, factor, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative patience accepted")
			}
		}()
		NewReduceLROnPlateau(o, 0.5, -1)
	}()
}

func TestPlateauThresholdIgnoresTinyImprovements(t *testing.T) {
	o := NewAdamW([]*gnn.Param{newParam(1)}, 1e-3)
	s := NewReduceLROnPlateau(o, 0.5, 1)
	s.Step(1.0)
	s.Step(0.99999) // below threshold: counts as no improvement
	if !s.Step(0.99998) {
		t.Fatal("tiny improvements should not reset patience")
	}
}
