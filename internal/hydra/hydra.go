// Package hydra assembles the HydraGNN model the paper trains: a stack of
// message-passing layers followed by one or more fully-connected output
// heads. Like the original HydraGNN, the message-passing policy is
// pluggable (the paper's evaluation uses PNA; GIN is also provided) and the
// model is multi-headed — the ORNL AISD-Ex task predicts 50 peak positions
// and 50 intensities, which map naturally onto two heads.
//
// The paper's configuration (§4.2) is 6 PNA layers of hidden dimension 200
// followed by 3 fully-connected layers of 200 neurons with ReLU, trained
// with AdamW at 1e-3 and a ReduceLROnPlateau schedule.
package hydra

import (
	"fmt"

	"ddstore/internal/gnn"
	"ddstore/internal/graph"
	"ddstore/internal/tensor"
	"ddstore/internal/vtime"
)

// ConvType selects the message-passing policy.
type ConvType int

const (
	// ConvPNA is Principal Neighbourhood Aggregation (the paper's choice).
	ConvPNA ConvType = iota
	// ConvGIN is the Graph Isomorphism Network convolution — cheaper,
	// included as HydraGNN's alternative policy.
	ConvGIN
)

func (t ConvType) String() string {
	switch t {
	case ConvPNA:
		return "PNA"
	case ConvGIN:
		return "GIN"
	default:
		return fmt.Sprintf("ConvType(%d)", int(t))
	}
}

// Head describes one output head: its own FC stack and loss weight. The
// batch target vector is the concatenation of all heads' targets in
// declaration order.
type Head struct {
	Name      string
	OutputDim int
	FCLayers  int
	// Weight scales this head's contribution to the loss (0 means 1).
	Weight float64
}

// Config describes a HydraGNN instance.
type Config struct {
	NodeFeatDim int
	EdgeFeatDim int
	HiddenDim   int      // paper: 200
	ConvLayers  int      // paper: 6
	Conv        ConvType // paper: PNA
	// FCLayers and OutputDim describe the single default head; ignored when
	// Heads is set.
	FCLayers  int // paper: 3
	OutputDim int
	// Heads configures multi-task output (optional).
	Heads []Head
	// Delta is the PNA degree-scaler normalizer; 0 means a molecular
	// default of log(4).
	Delta float64
	Seed  uint64
}

// heads returns the normalized head list.
func (c Config) heads() []Head {
	if len(c.Heads) > 0 {
		out := make([]Head, len(c.Heads))
		copy(out, c.Heads)
		for i := range out {
			if out[i].Weight == 0 {
				out[i].Weight = 1
			}
		}
		return out
	}
	return []Head{{Name: "out", OutputDim: c.OutputDim, FCLayers: c.FCLayers, Weight: 1}}
}

// TotalOutputDim returns the concatenated width of all heads.
func (c Config) TotalOutputDim() int {
	total := 0
	for _, h := range c.heads() {
		total += h.OutputDim
	}
	return total
}

// PaperConfig returns the configuration from §4.2 for a dataset's
// dimensions.
func PaperConfig(nodeDim, edgeDim, outputDim int) Config {
	return Config{
		NodeFeatDim: nodeDim,
		EdgeFeatDim: edgeDim,
		HiddenDim:   200,
		ConvLayers:  6,
		FCLayers:    3,
		OutputDim:   outputDim,
		Seed:        1,
	}
}

// conv abstracts one message-passing layer so the stack can mix policies.
type conv interface {
	Params() []*gnn.Param
	forward(x *tensor.Matrix, b *graph.Batch) (*tensor.Matrix, any)
	backward(dOut *tensor.Matrix, cache any) *tensor.Matrix
	flops(nodes, edges int) float64
}

type pnaConv struct{ *gnn.PNA }

func (p pnaConv) forward(x *tensor.Matrix, b *graph.Batch) (*tensor.Matrix, any) {
	out, c := p.PNA.Forward(x, b)
	return out, c
}
func (p pnaConv) backward(dOut *tensor.Matrix, cache any) *tensor.Matrix {
	return p.PNA.Backward(dOut, cache.(*gnn.PNACache))
}
func (p pnaConv) flops(nodes, edges int) float64 { return p.FlopsForward(nodes, edges) }

type ginConv struct{ *gnn.GIN }

func (g ginConv) forward(x *tensor.Matrix, b *graph.Batch) (*tensor.Matrix, any) {
	out, c := g.GIN.Forward(x, b)
	return out, c
}
func (g ginConv) backward(dOut *tensor.Matrix, cache any) *tensor.Matrix {
	return g.GIN.Backward(dOut, cache.(*gnn.GINCache))
}
func (g ginConv) flops(nodes, edges int) float64 { return g.FlopsForward(nodes, edges) }

// headNet is one output head's layers.
type headNet struct {
	spec Head
	fcs  []*gnn.Linear
	out  *gnn.Linear
}

// Model is one replica of HydraGNN. In DDP every rank holds an identical
// replica (same seed → same initialization, and allreduced gradients keep
// them in lockstep).
type Model struct {
	cfg   Config
	embed *gnn.Linear
	convs []conv
	heads []*headNet
}

// New builds the model; it panics on nonsensical configuration because
// that is a programming error, not an input error.
func New(cfg Config) *Model {
	if cfg.NodeFeatDim <= 0 || cfg.HiddenDim <= 0 || cfg.ConvLayers < 0 {
		panic(fmt.Sprintf("hydra: bad config %+v", cfg))
	}
	heads := cfg.heads()
	for _, h := range heads {
		if h.OutputDim <= 0 || h.FCLayers < 0 {
			panic(fmt.Sprintf("hydra: bad head %+v", h))
		}
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1.386 // log(4): typical molecular degree
	}
	rng := vtime.NewRNG(cfg.Seed + 0x5DEECE66D)
	m := &Model{cfg: cfg}
	m.embed = gnn.NewLinear("embed", cfg.NodeFeatDim, cfg.HiddenDim, rng)
	for i := 0; i < cfg.ConvLayers; i++ {
		name := fmt.Sprintf("conv%d", i)
		switch cfg.Conv {
		case ConvGIN:
			m.convs = append(m.convs, ginConv{gnn.NewGIN(name, cfg.HiddenDim, cfg.HiddenDim, rng)})
		default:
			m.convs = append(m.convs,
				pnaConv{gnn.NewPNA(name, cfg.HiddenDim, cfg.HiddenDim, cfg.EdgeFeatDim, cfg.Delta, rng)})
		}
	}
	for hi, h := range heads {
		net := &headNet{spec: h}
		for i := 0; i < h.FCLayers; i++ {
			net.fcs = append(net.fcs, gnn.NewLinear(fmt.Sprintf("head%d.fc%d", hi, i), cfg.HiddenDim, cfg.HiddenDim, rng))
		}
		net.out = gnn.NewLinear(fmt.Sprintf("head%d.out", hi), cfg.HiddenDim, h.OutputDim, rng)
		m.heads = append(m.heads, net)
	}
	return m
}

// Params returns all learnable parameters in a stable order.
func (m *Model) Params() []*gnn.Param {
	out := m.embed.Params()
	for _, c := range m.convs {
		out = append(out, c.Params()...)
	}
	for _, h := range m.heads {
		for _, fc := range h.fcs {
			out = append(out, fc.Params()...)
		}
		out = append(out, h.out.Params()...)
	}
	return out
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

// headState is one head's forward intermediates.
type headState struct {
	fcIn  []*tensor.Matrix
	fcOut []*tensor.Matrix // post-ReLU
	pred  *tensor.Matrix
}

// forwardState carries the intermediates Backward needs.
type forwardState struct {
	batch     *graph.Batch
	x0        *tensor.Matrix // node features
	embedOut  *tensor.Matrix // post-ReLU embedding
	convCache []any
	pooled    *tensor.Matrix
	heads     []*headState
	pred      *tensor.Matrix // concatenated head outputs
}

// Forward computes predictions for a batch (heads concatenated column-wise)
// and returns the state needed for Backward.
func (m *Model) Forward(b *graph.Batch) (*tensor.Matrix, *forwardState) {
	st := &forwardState{batch: b}
	st.x0 = tensor.FromData(b.NumNodes, b.NodeFeatDim, b.NodeFeat)
	h := m.embed.Forward(st.x0)
	tensor.ReluInPlace(h)
	st.embedOut = h
	for _, conv := range m.convs {
		var cache any
		h, cache = conv.forward(h, b)
		st.convCache = append(st.convCache, cache)
	}
	pooled := gnn.MeanPool(h, b)
	st.pooled = pooled

	preds := make([]*tensor.Matrix, len(m.heads))
	for hi, head := range m.heads {
		hs := &headState{}
		x := pooled
		for _, fc := range head.fcs {
			hs.fcIn = append(hs.fcIn, x)
			y := fc.Forward(x)
			tensor.ReluInPlace(y)
			hs.fcOut = append(hs.fcOut, y)
			x = y
		}
		hs.pred = head.out.Forward(x)
		preds[hi] = hs.pred
		st.heads = append(st.heads, hs)
	}
	if len(preds) == 1 {
		st.pred = preds[0]
	} else {
		st.pred = tensor.ConcatCols(preds...)
	}
	return st.pred, st
}

// Loss computes the weighted multi-head MSE of predictions against the
// batch targets and the gradient of the concatenated prediction.
func (m *Model) Loss(pred *tensor.Matrix, b *graph.Batch) (float64, *tensor.Matrix) {
	heads := m.cfg.heads()
	if len(heads) == 1 {
		loss, d := gnn.MSELoss(pred, b.Y)
		return loss * heads[0].Weight, scaled(d, float32(heads[0].Weight))
	}
	// Split targets and predictions per head, compute weighted losses.
	total := m.cfg.TotalOutputDim()
	if pred.Cols != total || b.YDim != total {
		panic(fmt.Sprintf("hydra: %d prediction cols, %d target dims, config total %d", pred.Cols, b.YDim, total))
	}
	dPred := tensor.New(pred.Rows, pred.Cols)
	var loss float64
	off := 0
	for _, h := range heads {
		for row := 0; row < pred.Rows; row++ {
			prow := pred.Row(row)[off : off+h.OutputDim]
			trow := b.Y[row*total+off : row*total+off+h.OutputDim]
			drow := dPred.Row(row)[off : off+h.OutputDim]
			n := float64(pred.Rows * h.OutputDim)
			for j := range prow {
				diff := float64(prow[j]) - float64(trow[j])
				loss += h.Weight * diff * diff / n
				drow[j] = float32(h.Weight * 2 * diff / n)
			}
		}
		off += h.OutputDim
	}
	return loss, dPred
}

func scaled(m *tensor.Matrix, s float32) *tensor.Matrix {
	if s == 1 {
		return m
	}
	tensor.ScaleInPlace(m, s)
	return m
}

// Backward accumulates gradients for a forward pass, given dPred (from
// Loss; concatenated across heads).
func (m *Model) Backward(st *forwardState, dPred *tensor.Matrix) {
	// Split the prediction gradient per head and run each head's stack,
	// accumulating the pooled-feature gradient.
	widths := make([]int, len(m.heads))
	for i, h := range m.heads {
		widths[i] = h.spec.OutputDim
	}
	var parts []*tensor.Matrix
	if len(m.heads) == 1 {
		parts = []*tensor.Matrix{dPred}
	} else {
		parts = tensor.SplitCols(dPred, widths...)
	}
	dPooled := tensor.New(st.pooled.Rows, st.pooled.Cols)
	for hi, head := range m.heads {
		hs := st.heads[hi]
		var lastIn *tensor.Matrix
		if len(hs.fcOut) > 0 {
			lastIn = hs.fcOut[len(hs.fcOut)-1]
		} else {
			lastIn = st.pooled
		}
		d := head.out.Backward(lastIn, parts[hi])
		for i := len(head.fcs) - 1; i >= 0; i-- {
			tensor.ReluBackward(d, hs.fcOut[i])
			d = head.fcs[i].Backward(hs.fcIn[i], d)
		}
		tensor.AddInPlace(dPooled, d)
	}
	dNodes := gnn.MeanPoolBackward(dPooled, st.batch)
	for i := len(m.convs) - 1; i >= 0; i-- {
		dNodes = m.convs[i].backward(dNodes, st.convCache[i])
	}
	tensor.ReluBackward(dNodes, st.embedOut)
	m.embed.Backward(st.x0, dNodes)
}

// TrainStep runs forward+backward on a batch and returns the loss.
// Gradients accumulate into the parameters (call the optimizer's ZeroGrad
// between steps).
func (m *Model) TrainStep(b *graph.Batch) float64 {
	pred, st := m.Forward(b)
	loss, dPred := m.Loss(pred, b)
	m.Backward(st, dPred)
	return loss
}

// EvalLoss runs forward only and returns the loss.
func (m *Model) EvalLoss(b *graph.Batch) float64 {
	pred, _ := m.Forward(b)
	loss, _ := m.Loss(pred, b)
	return loss
}

// GradBytes returns the byte size of the flattened gradient, the volume a
// DDP allreduce moves per step.
func (m *Model) GradBytes() int64 { return int64(m.NumParams()) * 4 }

// FlattenGrads copies all gradients into one flat vector (allocating if buf
// is too small) — the bucketing step before the DDP allreduce.
func (m *Model) FlattenGrads(buf []float32) []float32 {
	n := m.NumParams()
	if cap(buf) < n {
		buf = make([]float32, n)
	}
	buf = buf[:n]
	off := 0
	for _, p := range m.Params() {
		off += copy(buf[off:], p.Grad.Data)
	}
	return buf
}

// UnflattenGrads writes a flat gradient vector back into the parameters
// (after the allreduce), scaling each element by scale (1/worldSize for
// gradient averaging).
func (m *Model) UnflattenGrads(buf []float32, scale float32) {
	off := 0
	for _, p := range m.Params() {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = buf[off] * scale
			off++
		}
	}
	if off != len(buf) {
		panic(fmt.Sprintf("hydra: gradient vector has %d values, model needs %d", len(buf), off))
	}
}

// FlopsPerBatch estimates the forward+backward flop count for a batch —
// the quantity the simulated-cluster experiments convert into GPU time.
// Backward is counted as 2× forward, the standard estimate.
func (m *Model) FlopsPerBatch(numNodes, numEdges, numGraphs int) float64 {
	f := m.embed.FlopsForward(numNodes)
	for _, c := range m.convs {
		f += c.flops(numNodes, numEdges)
	}
	for _, h := range m.heads {
		for _, fc := range h.fcs {
			f += fc.FlopsForward(numGraphs)
		}
		f += h.out.FlopsForward(numGraphs)
	}
	return 3 * f
}

// ParamCount returns the scalar parameter count of a configuration without
// allocating the model — used by the simulated-compute mode, where
// thousands of ranks share one machine and instantiating real weights per
// rank would exhaust memory.
func ParamCount(cfg Config) int {
	if cfg.HiddenDim <= 0 {
		return 0
	}
	h := cfg.HiddenDim
	n := (cfg.NodeFeatDim + 1) * h // embed
	var perConv int
	switch cfg.Conv {
	case ConvGIN:
		perConv = (h+1)*h + (h+1)*h
	default:
		perConv = (h+1)*h + (13*h+1)*h
		if cfg.EdgeFeatDim > 0 {
			perConv += (cfg.EdgeFeatDim + 1) * h
		}
	}
	n += cfg.ConvLayers * perConv
	for _, head := range cfg.heads() {
		n += head.FCLayers * (h + 1) * h
		n += (h + 1) * head.OutputDim
	}
	return n
}

// FlopsEstimate returns the forward+backward flop estimate for a batch
// shape without allocating the model; it matches Model.FlopsPerBatch.
func FlopsEstimate(cfg Config, numNodes, numEdges, numGraphs int) float64 {
	h := float64(cfg.HiddenDim)
	nodes := float64(numNodes)
	edges := float64(numEdges)
	graphs := float64(numGraphs)
	f := 2 * nodes * float64(cfg.NodeFeatDim) * h // embed
	var perConv float64
	switch cfg.Conv {
	case ConvGIN:
		perConv = edges*h*2 + 2*nodes*h*h + 2*nodes*h*h
	default:
		perConv = 2*nodes*h*h + edges*h*8 + 2*nodes*(13*h)*h
		if cfg.EdgeFeatDim > 0 {
			perConv += 2 * edges * float64(cfg.EdgeFeatDim) * h
		}
	}
	f += float64(cfg.ConvLayers) * perConv
	for _, head := range cfg.heads() {
		f += float64(head.FCLayers) * 2 * graphs * h * h
		f += 2 * graphs * h * float64(head.OutputDim)
	}
	return 3 * f
}
