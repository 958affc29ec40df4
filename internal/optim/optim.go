// Package optim implements the training-side optimization pieces HydraGNN
// uses: the AdamW optimizer (decoupled weight decay, Loshchilov & Hutter)
// with PyTorch's default hyperparameters, and the ReduceLROnPlateau learning
// rate scheduler driven by validation loss — the abrupt loss bump the
// paper's Fig. 13 shows at epoch 26 is this scheduler halving the rate.
package optim

import (
	"fmt"
	"math"

	"ddstore/internal/gnn"
)

// AdamW optimizes a fixed set of parameters.
type AdamW struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*gnn.Param
	m      [][]float32
	v      [][]float32
	step   int
}

// NewAdamW creates the optimizer with PyTorch defaults (β=0.9/0.999,
// eps=1e-8, weight decay 0.01) for the given parameters.
func NewAdamW(params []*gnn.Param, lr float64) *AdamW {
	o := &AdamW{
		LR:          lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-8,
		WeightDecay: 0.01,
		params:      params,
	}
	o.m = make([][]float32, len(params))
	o.v = make([][]float32, len(params))
	for i, p := range params {
		o.m[i] = make([]float32, len(p.Value.Data))
		o.v[i] = make([]float32, len(p.Value.Data))
	}
	return o
}

// Step applies one update from the accumulated gradients.
func (o *AdamW) Step() {
	o.step++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for i, p := range o.params {
		m, v := o.m[i], o.v[i]
		for j, g64 := range p.Grad.Data {
			g := float64(g64)
			mj := o.Beta1*float64(m[j]) + (1-o.Beta1)*g
			vj := o.Beta2*float64(v[j]) + (1-o.Beta2)*g*g
			m[j] = float32(mj)
			v[j] = float32(vj)
			mhat := mj / bc1
			vhat := vj / bc2
			w := float64(p.Value.Data[j])
			w -= o.LR * (mhat/(math.Sqrt(vhat)+o.Eps) + o.WeightDecay*w)
			p.Value.Data[j] = float32(w)
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (o *AdamW) ZeroGrad() {
	for _, p := range o.params {
		p.ZeroGrad()
	}
}

// ReduceLROnPlateau halves (by Factor) the optimizer's learning rate when
// the monitored metric has not improved for Patience epochs, like PyTorch's
// scheduler of the same name.
type ReduceLROnPlateau struct {
	Opt      *AdamW
	Factor   float64 // multiplicative decay, e.g. 0.5
	Patience int     // epochs without improvement before decaying
	MinLR    float64
	// Threshold is the minimum relative improvement that resets patience.
	Threshold float64

	best    float64
	bad     int
	started bool
	// Decays counts how many times the rate was reduced.
	Decays int
}

// NewReduceLROnPlateau wraps opt with PyTorch-like defaults (factor 0.5,
// patience 10, threshold 1e-4).
func NewReduceLROnPlateau(opt *AdamW, factor float64, patience int) *ReduceLROnPlateau {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("optim: plateau factor %v must be in (0,1)", factor))
	}
	if patience < 0 {
		panic("optim: negative patience")
	}
	return &ReduceLROnPlateau{
		Opt:       opt,
		Factor:    factor,
		Patience:  patience,
		MinLR:     1e-6,
		Threshold: 1e-4,
	}
}

// Step reports the epoch's validation metric (lower is better) and decays
// the learning rate if it has plateaued. It returns true when a decay
// happened this call.
func (s *ReduceLROnPlateau) Step(metric float64) bool {
	if !s.started || metric < s.best*(1-s.Threshold) {
		s.best = metric
		s.started = true
		s.bad = 0
		return false
	}
	s.bad++
	if s.bad <= s.Patience {
		return false
	}
	s.bad = 0
	newLR := s.Opt.LR * s.Factor
	if newLR < s.MinLR {
		newLR = s.MinLR
	}
	if newLR < s.Opt.LR {
		s.Opt.LR = newLR
		s.Decays++
		return true
	}
	return false
}
