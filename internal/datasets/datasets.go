// Package datasets provides deterministic synthetic generators with the
// statistical shape of the paper's four atomistic datasets:
//
//   - Ising: 125-atom cubic-lattice spin configurations with a closed-form
//     Ising Hamiltonian energy label (the paper's synthetic benchmark for
//     ferromagnetic materials).
//   - AISD HOMO-LUMO: organic molecules of 5–71 heavy atoms with a scalar
//     HOMO-LUMO-gap label.
//   - ORNL AISD-Ex (Discrete): the same molecules with a 2×50 UV-vis
//     spectrum target (50 peak positions and 50 intensities).
//   - ORNL AISD-Ex (Smooth): a Gaussian-smoothed spectrum on a configurable
//     grid (37,500 bins in the paper; scaled down by default).
//
// Every sample is generated deterministically from (dataset seed, sample
// id), so any rank can materialize any chunk without coordination and the
// same id always yields identical bytes — the property the equivalence tests
// between PFF, CFF, and DDStore rely on.
//
// Generation sits under every boot, preload, lazy-server miss and benchmark
// run, so each generator allocates only what a sample keeps. Ising samples
// differ only in their spins: all of them share one read-only lattice
// (edges, couplings, coordinates) built once per process, and each owns just
// its node features and label. A molecule owns its node features, label and
// two edge lists, allocated at their exact capacity. Samples are immutable
// to every caller; the shared slices are capacity-clipped, so an append
// copies rather than reaching another sample.
//
// The labels are deterministic smooth functionals of the graph structure, so
// a GNN can genuinely learn them (used by the convergence experiment,
// Fig. 13).
package datasets

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ddstore/internal/graph"
	"ddstore/internal/vtime"
)

// Dataset is a deterministic sample source.
type Dataset struct {
	name      string
	numGraphs int
	yDim      int
	nodeDim   int
	edgeDim   int
	kind      kind
	// cache holds pre-generated samples after EnableCache. Samples are
	// treated as immutable everywhere (batching and preloading copy), so
	// sharing pointers is safe.
	cache []*graph.Graph
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.numGraphs }

// OutputDim returns the per-graph target width.
func (d *Dataset) OutputDim() int { return d.yDim }

// NodeFeatDim returns the per-node feature width.
func (d *Dataset) NodeFeatDim() int { return d.nodeDim }

// EdgeFeatDim returns the per-edge feature width.
func (d *Dataset) EdgeFeatDim() int { return d.edgeDim }

// Sample deterministically generates sample id (or returns the cached
// instance after EnableCache). Callers must treat the result as immutable.
func (d *Dataset) Sample(id int64) (*graph.Graph, error) {
	if id < 0 || id >= int64(d.numGraphs) {
		return nil, fmt.Errorf("datasets: sample %d out of range [0,%d)", id, d.numGraphs)
	}
	if d.cache != nil {
		return d.cache[id], nil
	}
	return d.generate(id), nil
}

// kind selects a dataset's generator.
type kind int

const (
	kindIsing kind = iota
	kindHomoLumo
	kindDiscrete
	kindSmooth // its grid is yDim bins wide
)

// generate builds sample id. The generators are called directly, not
// through a function value, so the sample's RNG stays on the stack.
func (d *Dataset) generate(id int64) *graph.Graph {
	rng := vtime.NewRNG(uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	var g *graph.Graph
	switch d.kind {
	case kindIsing:
		g = isingSample(rng)
	case kindHomoLumo:
		g = moleculeGraph(rng)
		g.Y = []float32{homoLumoGap(g)}
	case kindDiscrete:
		g = moleculeGraph(rng)
		g.Y = make([]float32, 100)
		spectrumPeaks(g, rng, g.Y[:50], g.Y[50:])
	case kindSmooth:
		g = moleculeGraph(rng)
		var pos, inten [50]float32
		spectrumPeaks(g, rng, pos[:], inten[:])
		g.Y = SmoothSpectrum(pos[:], inten[:], d.yDim, 0.01)
	}
	g.ID = id
	return g
}

// EnableCache eagerly materializes every sample so subsequent Sample calls
// are pointer lookups. Call before sharing the dataset across goroutines —
// the experiment harness uses it to avoid regenerating hundreds of
// thousands of samples per run. Idempotent. The cache holds every sample's
// own tensors; cached Ising samples share one lattice, so each holds about
// 2 KB (node features and label) of its 10.7 KB encoded size.
func (d *Dataset) EnableCache() {
	if d.cache != nil {
		return
	}
	cache := make([]*graph.Graph, d.numGraphs)
	for id := range cache {
		cache[id] = d.generate(int64(id))
	}
	d.cache = cache
}

// Config controls dataset generation.
type Config struct {
	// NumGraphs overrides the sample count (0 means the scaled default).
	NumGraphs int
	// SpectrumBins sets the smooth-spectrum grid size (0 means 375, the
	// paper's 37,500 scaled by 100×).
	SpectrumBins int
}

func (c Config) numGraphs(def int) int {
	if c.NumGraphs > 0 {
		return c.NumGraphs
	}
	return def
}

// Scaled default sample counts: the paper's counts divided by ~100 so the
// full suite runs on one machine. Relative dataset sizes are preserved.
const (
	DefaultIsingGraphs    = 12000
	DefaultMoleculeGraphs = 105000
	DefaultSpectrumBins   = 375
)

// Ising returns the synthetic Ising dataset: a 5×5×5 cubic lattice (125
// atoms) per sample, random ±1 spins, energy from the Ising Hamiltonian
// E = -J Σ_<ij> s_i s_j with J = 1 over lattice-neighbor bonds. Only the
// spins differ between samples, so every sample shares the lattice's
// topology, coordinates and couplings (isingLattice) and owns only its
// node features and label.
func Ising(cfg Config) *Dataset {
	return &Dataset{
		name:      "Ising",
		numGraphs: cfg.numGraphs(DefaultIsingGraphs),
		yDim:      1,
		nodeDim:   4, // spin, x, y, z
		edgeDim:   1, // coupling strength
		kind:      kindIsing,
	}
}

// isingSample draws one sample's spins over the shared lattice and labels
// it with its per-atom energy.
func isingSample(rng *vtime.RNG) *graph.Graph {
	lat := isingLattice()
	nodeFeat := make([]float32, len(lat.nodeFeat))
	copy(nodeFeat, lat.nodeFeat)
	for i := 0; i < isingAtoms; i++ {
		if rng.Intn(2) == 0 {
			nodeFeat[i*4] = -1
		} else {
			nodeFeat[i*4] = 1
		}
	}
	// Each bond is the pair src[k], src[k+1] (its two directed edges are
	// adjacent), summed in lattice order as float32 products.
	var energy float64
	for k := 0; k < len(lat.src); k += 2 {
		energy -= float64(nodeFeat[lat.src[k]*4] * nodeFeat[lat.src[k+1]*4])
	}
	return &graph.Graph{
		NumNodes:    isingAtoms,
		NodeFeatDim: 4,
		NodeFeat:    nodeFeat,
		EdgeSrc:     lat.src,
		EdgeDst:     lat.dst,
		EdgeFeatDim: 1,
		EdgeFeat:    lat.edgeFeat,
		Pos:         lat.pos,
		Y:           []float32{float32(energy / isingAtoms)}, // per-atom energy
	}
}

const (
	isingSide  = 5
	isingAtoms = isingSide * isingSide * isingSide
)

// lattice is the part of an Ising sample that every sample shares: the
// node-feature template (spin column zero), coordinates, and the directed
// bonds with their couplings. Its slices are read-only and capacity-clipped,
// so a caller that appends to one gets a copy and never reaches another
// sample.
type lattice struct {
	nodeFeat, pos, edgeFeat []float32
	src, dst                []int32
}

// isingLattice builds the 5×5×5 lattice once per process. Atoms are
// numbered (x*5+y)*5+z; each atom bonds to its +x, +y and +z neighbor in
// that order, each bond stored as two adjacent directed edges.
var isingLattice = sync.OnceValue(func() *lattice {
	idx := func(x, y, z int) int32 { return int32((x*isingSide+y)*isingSide + z) }
	nodeFeat := make([]float32, 0, isingAtoms*4)
	pos := make([]float32, 0, isingAtoms*3)
	var src, dst []int32
	bond := func(a, b int32) {
		src = append(src, a, b)
		dst = append(dst, b, a)
	}
	for x := 0; x < isingSide; x++ {
		for y := 0; y < isingSide; y++ {
			for z := 0; z < isingSide; z++ {
				px := float32(x) / isingSide
				py := float32(y) / isingSide
				pz := float32(z) / isingSide
				nodeFeat = append(nodeFeat, 0, px, py, pz)
				pos = append(pos, px, py, pz)
				if x+1 < isingSide {
					bond(idx(x, y, z), idx(x+1, y, z))
				}
				if y+1 < isingSide {
					bond(idx(x, y, z), idx(x, y+1, z))
				}
				if z+1 < isingSide {
					bond(idx(x, y, z), idx(x, y, z+1))
				}
			}
		}
	}
	edgeFeat := make([]float32, len(src))
	for i := range edgeFeat {
		edgeFeat[i] = 1
	}
	return &lattice{
		nodeFeat: slices.Clip(nodeFeat),
		pos:      slices.Clip(pos),
		edgeFeat: slices.Clip(edgeFeat),
		src:      slices.Clip(src),
		dst:      slices.Clip(dst),
	}
})

// maxAtoms is the largest molecule's heavy-atom count.
const maxAtoms = 71

// molecule builds a random connected molecular graph of n heavy atoms: a
// random spanning tree plus ring-closing bonds, with element types drawn
// from organic chemistry's usual suspects (C, N, O, F, S, Cl). It writes
// the atoms' element types into elements and returns the directed edges,
// each bond as two adjacent entries.
func molecule(rng *vtime.RNG, elements *[maxAtoms]uint8) (n int, src, dst []int32) {
	// Mean heavy-atom count ≈ 52 like AISD (max of two uniforms over 5..71
	// skews high).
	a := 5 + rng.Intn(67)
	b := 5 + rng.Intn(67)
	n = max(a, b)
	elementSet := [...]uint8{6, 6, 6, 6, 6, 7, 7, 8, 8, 9, 16, 17} // carbon-rich
	for i := 0; i < n; i++ {
		elements[i] = elementSet[rng.Intn(len(elementSet))]
	}
	// A tree's n-1 bonds plus at most one ring-closing bond per 12 atoms.
	rings := n / 12
	bonds := n - 1 + rings
	src = make([]int32, 0, 2*bonds)
	dst = make([]int32, 0, 2*bonds)
	// Spanning tree: attach each atom to a random earlier atom, preferring
	// recent atoms (chains with branches, like real molecules).
	for i := 1; i < n; i++ {
		lo := max(i-4, 0)
		parent := int32(lo + rng.Intn(i-lo))
		src = append(src, parent, int32(i))
		dst = append(dst, int32(i), parent)
	}
	// Ring closures: roughly one ring per 12 atoms.
	for r := 0; r < rings; r++ {
		x := int32(rng.Intn(n))
		y := int32(rng.Intn(n))
		if x != y {
			src = append(src, x, y)
			dst = append(dst, y, x)
		}
	}
	return n, src, dst
}

// moleculeGraph converts a generated molecule into graph form (without Y).
func moleculeGraph(rng *vtime.RNG) *graph.Graph {
	var elements [maxAtoms]uint8
	n, src, dst := molecule(rng, &elements)
	var deg [maxAtoms]int32
	for _, s := range src {
		deg[s]++
	}
	nodeFeat := make([]float32, n*3)
	for i := 0; i < n; i++ {
		nodeFeat[i*3] = float32(elements[i]) / 17.0 // normalized atomic number
		nodeFeat[i*3+1] = float32(deg[i]) / 4.0     // normalized degree
		nodeFeat[i*3+2] = float32(i) / float32(n)   // canonical position in the chain
	}
	return &graph.Graph{
		NumNodes:    n,
		NodeFeatDim: 3,
		NodeFeat:    nodeFeat,
		EdgeSrc:     src,
		EdgeDst:     dst,
	}
}

// moleculeDescriptors returns smooth structural functionals used to build
// learnable labels: mean atomic number, size, mean degree.
func moleculeDescriptors(g *graph.Graph) (meanZ, size, meanDeg float64) {
	n := g.NumNodes
	for i := 0; i < n; i++ {
		meanZ += float64(g.NodeFeat[i*3]) // already normalized by 17
	}
	meanZ /= float64(n)
	size = float64(n)
	meanDeg = float64(g.NumEdges()) / float64(n)
	return
}

// homoLumoGap is the deterministic synthetic label: a smooth graph
// functional resembling how gaps shrink with conjugation length and vary
// with composition.
func homoLumoGap(g *graph.Graph) float32 {
	meanZ, size, meanDeg := moleculeDescriptors(g)
	gap := 1.5 + 30.0/(size+3) + 1.2*meanZ + 0.4*math.Sin(meanDeg*math.Pi)
	return float32(gap)
}

// HomoLumo returns the AISD HOMO-LUMO-style dataset: molecules with a scalar
// gap target.
func HomoLumo(cfg Config) *Dataset {
	return &Dataset{
		name:      "AISD HOMO-LUMO",
		numGraphs: cfg.numGraphs(DefaultMoleculeGraphs),
		yDim:      1,
		nodeDim:   3,
		edgeDim:   0,
		kind:      kindHomoLumo,
	}
}

// spectrumPeaks derives 50 deterministic UV-vis peaks (positions in (0,1),
// non-negative intensities) from a molecule's structure, writing them into
// pos and intensity (50 entries each).
func spectrumPeaks(g *graph.Graph, rng *vtime.RNG, pos, intensity []float32) {
	meanZ, size, meanDeg := moleculeDescriptors(g)
	base := 0.1 + 0.5*meanZ
	spread := 0.05 + 0.2/math.Sqrt(size)
	for k := 0; k < 50; k++ {
		center := base + 0.8*float64(k)/50*spread*10
		p := center + 0.02*rng.NormFloat64()
		if p < 0.001 {
			p = 0.001
		}
		if p > 0.999 {
			p = 0.999
		}
		pos[k] = float32(p)
		inten := math.Exp(-float64(k)/15) * (0.5 + meanDeg/3) * (1 + 0.1*rng.NormFloat64())
		if inten < 0 {
			inten = 0
		}
		intensity[k] = float32(inten)
	}
}

// AISDExDiscrete returns the ORNL AISD-Ex discrete dataset: molecules with a
// 2×50 target (50 peak positions, 50 intensities).
func AISDExDiscrete(cfg Config) *Dataset {
	return &Dataset{
		name:      "ORNL AISD-Ex (Discrete)",
		numGraphs: cfg.numGraphs(DefaultMoleculeGraphs),
		yDim:      100,
		nodeDim:   3,
		edgeDim:   0,
		kind:      kindDiscrete,
	}
}

// AISDExSmooth returns the ORNL AISD-Ex smooth dataset: the discrete peaks
// Gaussian-smoothed onto a grid of cfg.SpectrumBins bins (default 375). The
// paper's grid is 37,500 bins; the Smooth & Small variant used on
// Perlmutter is 351.
func AISDExSmooth(cfg Config) *Dataset {
	bins := cfg.SpectrumBins
	if bins <= 0 {
		bins = DefaultSpectrumBins
	}
	return &Dataset{
		name:      "ORNL AISD-Ex (Smooth)",
		numGraphs: cfg.numGraphs(DefaultMoleculeGraphs),
		yDim:      bins,
		nodeDim:   3,
		edgeDim:   0,
		kind:      kindSmooth,
	}
}

// SmoothSpectrum convolves discrete peaks with a Gaussian of width sigma
// (in grid units of [0,1]) onto a bins-wide grid — the same post-processing
// the paper applies to the DFTB peaks.
func SmoothSpectrum(pos, intensity []float32, bins int, sigma float64) []float32 {
	out := make([]float32, bins)
	inv2s2 := 1 / (2 * sigma * sigma)
	for i := range pos {
		p := float64(pos[i])
		in := float64(intensity[i])
		if in == 0 {
			continue
		}
		// Only fill bins within 4 sigma of the peak.
		lo := int((p - 4*sigma) * float64(bins))
		hi := int((p+4*sigma)*float64(bins)) + 1
		if lo < 0 {
			lo = 0
		}
		if hi > bins {
			hi = bins
		}
		for k := lo; k < hi; k++ {
			x := (float64(k) + 0.5) / float64(bins)
			d := x - p
			out[k] += float32(in * math.Exp(-d*d*inv2s2))
		}
	}
	return out
}

// Stats summarizes a dataset by exact enumeration of a sample prefix and
// extrapolation, for the Table 1 reproduction.
type Stats struct {
	Name          string
	NumGraphs     int
	TotalNodes    int64
	TotalEdges    int64
	FeatureDim    int
	MeanBytesPFF  int64 // encoded size per sample
	TotalBytesPFF int64
}

// ComputeStats enumerates up to probe samples (0 = 1000) and extrapolates
// node/edge/byte totals to the full dataset size.
func ComputeStats(d *Dataset, probe int) (Stats, error) {
	if probe <= 0 {
		probe = 1000
	}
	if probe > d.Len() {
		probe = d.Len()
	}
	var nodes, edges, bytes int64
	for i := 0; i < probe; i++ {
		g, err := d.Sample(int64(i))
		if err != nil {
			return Stats{}, err
		}
		nodes += int64(g.NumNodes)
		edges += int64(g.NumEdges())
		bytes += int64(g.EncodedSize())
	}
	scale := float64(d.Len()) / float64(probe)
	return Stats{
		Name:          d.Name(),
		NumGraphs:     d.Len(),
		TotalNodes:    int64(float64(nodes) * scale),
		TotalEdges:    int64(float64(edges) * scale),
		FeatureDim:    d.OutputDim(),
		MeanBytesPFF:  bytes / int64(probe),
		TotalBytesPFF: int64(float64(bytes) * scale),
	}, nil
}

// ReadSample is an alias for Sample so a Dataset satisfies the
// core.SampleSource interface and can act as a direct in-memory source
// (bypassing any file format).
func (d *Dataset) ReadSample(id int64) (*graph.Graph, error) { return d.Sample(id) }
