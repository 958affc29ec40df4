package datasets

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"ddstore/internal/graph"
)

func allDatasets(cfg Config) []*Dataset {
	return []*Dataset{Ising(cfg), HomoLumo(cfg), AISDExDiscrete(cfg), AISDExSmooth(cfg)}
}

func TestSampleDeterminism(t *testing.T) {
	for _, d := range allDatasets(Config{NumGraphs: 100}) {
		a, err := d.Sample(17)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Sample(17)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb := a.Encode(), b.Encode()
		if len(ab) != len(bb) {
			t.Fatalf("%s: nondeterministic sample size", d.Name())
		}
		for i := range ab {
			if ab[i] != bb[i] {
				t.Fatalf("%s: nondeterministic sample bytes at %d", d.Name(), i)
			}
		}
	}
}

func TestSamplesDiffer(t *testing.T) {
	for _, d := range allDatasets(Config{NumGraphs: 100}) {
		a, _ := d.Sample(1)
		b, _ := d.Sample(2)
		if a.Y[0] == b.Y[0] && a.NumNodes == b.NumNodes && a.NumEdges() == b.NumEdges() {
			// Identical shape and label across ids would indicate a broken
			// id-to-seed mapping (Ising always has the same shape, so check
			// the label there).
			if d.Name() == "Ising" {
				t.Fatalf("%s: samples 1 and 2 identical", d.Name())
			}
		}
	}
}

func TestSampleRangeChecks(t *testing.T) {
	d := Ising(Config{NumGraphs: 10})
	if _, err := d.Sample(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := d.Sample(10); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := d.Sample(9); err != nil {
		t.Fatal(err)
	}
}

func TestAllSamplesValid(t *testing.T) {
	for _, d := range allDatasets(Config{NumGraphs: 50}) {
		for id := int64(0); id < 50; id++ {
			g, err := d.Sample(id)
			if err != nil {
				t.Fatalf("%s[%d]: %v", d.Name(), id, err)
			}
			// Every tensor length agrees with the counts (the codec's
			// exact-length parse) and every edge joins two of the sample's
			// own nodes (batch assembly's endpoint check).
			if err := graph.CheckEncoded(g.Encode(), id); err != nil {
				t.Fatalf("%s[%d]: %v", d.Name(), id, err)
			}
			if _, err := graph.NewBatch([]*graph.Graph{g}); err != nil {
				t.Fatalf("%s[%d]: %v", d.Name(), id, err)
			}
			if g.ID != id {
				t.Fatalf("%s[%d]: ID = %d", d.Name(), id, g.ID)
			}
			if len(g.Y) != d.OutputDim() {
				t.Fatalf("%s[%d]: %d targets, want %d", d.Name(), id, len(g.Y), d.OutputDim())
			}
			if g.NodeFeatDim != d.NodeFeatDim() {
				t.Fatalf("%s[%d]: node dim %d, want %d", d.Name(), id, g.NodeFeatDim, d.NodeFeatDim())
			}
		}
	}
}

func TestIsingStructure(t *testing.T) {
	d := Ising(Config{NumGraphs: 10})
	g, err := d.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 125 {
		t.Fatalf("Ising has %d atoms, want 125", g.NumNodes)
	}
	// Non-periodic 5^3 lattice: 3 * 4 * 25 = 300 bonds = 600 directed edges.
	if g.NumEdges() != 600 {
		t.Fatalf("Ising has %d directed edges, want 600", g.NumEdges())
	}
	// Spins are ±1 in feature column 0.
	for i := 0; i < g.NumNodes; i++ {
		s := g.NodeFeat[i*4]
		if s != 1 && s != -1 {
			t.Fatalf("atom %d spin = %v", i, s)
		}
	}
}

func TestIsingEnergyMatchesHamiltonian(t *testing.T) {
	d := Ising(Config{NumGraphs: 20})
	for id := int64(0); id < 20; id++ {
		g, _ := d.Sample(id)
		// Recompute E = -sum over undirected bonds of s_i s_j; directed
		// edges double-count, so halve.
		var e float64
		for k := range g.EdgeSrc {
			si := g.NodeFeat[g.EdgeSrc[k]*4]
			sj := g.NodeFeat[g.EdgeDst[k]*4]
			e -= float64(si * sj)
		}
		e /= 2
		want := e / 125
		if math.Abs(float64(g.Y[0])-want) > 1e-4 {
			t.Fatalf("sample %d: label %v, Hamiltonian %v", id, g.Y[0], want)
		}
	}
}

func TestIsingEnergyRange(t *testing.T) {
	// Per-atom energy of a 5^3 lattice lies in [-300/125, 300/125].
	d := Ising(Config{NumGraphs: 50})
	for id := int64(0); id < 50; id++ {
		g, _ := d.Sample(id)
		if e := float64(g.Y[0]); e < -2.4 || e > 2.4 {
			t.Fatalf("sample %d: per-atom energy %v out of range", id, e)
		}
	}
}

func TestMoleculeSizesInRange(t *testing.T) {
	d := HomoLumo(Config{NumGraphs: 300})
	var totalNodes int
	for id := int64(0); id < 300; id++ {
		g, _ := d.Sample(id)
		if g.NumNodes < 5 || g.NumNodes > 71 {
			t.Fatalf("molecule %d has %d atoms, want 5..71", id, g.NumNodes)
		}
		totalNodes += g.NumNodes
	}
	mean := float64(totalNodes) / 300
	// Paper mean is ~52.4 atoms; accept a generous band.
	if mean < 40 || mean > 62 {
		t.Fatalf("mean molecule size %v, want ~52", mean)
	}
}

func TestMoleculeConnected(t *testing.T) {
	d := HomoLumo(Config{NumGraphs: 50})
	for id := int64(0); id < 50; id++ {
		g, _ := d.Sample(id)
		// BFS from node 0 must reach every node.
		adj := make([][]int32, g.NumNodes)
		for k := range g.EdgeSrc {
			adj[g.EdgeSrc[k]] = append(adj[g.EdgeSrc[k]], g.EdgeDst[k])
		}
		seen := make([]bool, g.NumNodes)
		queue := []int32{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					count++
					queue = append(queue, w)
				}
			}
		}
		if count != g.NumNodes {
			t.Fatalf("molecule %d: only %d/%d atoms reachable", id, count, g.NumNodes)
		}
	}
}

func TestHomoLumoGapPositive(t *testing.T) {
	d := HomoLumo(Config{NumGraphs: 200})
	for id := int64(0); id < 200; id++ {
		g, _ := d.Sample(id)
		if g.Y[0] <= 0 || g.Y[0] > 20 {
			t.Fatalf("gap[%d] = %v, implausible", id, g.Y[0])
		}
	}
}

func TestDiscreteSpectrumShape(t *testing.T) {
	d := AISDExDiscrete(Config{NumGraphs: 50})
	for id := int64(0); id < 50; id++ {
		g, _ := d.Sample(id)
		if len(g.Y) != 100 {
			t.Fatalf("discrete target dim %d", len(g.Y))
		}
		for k := 0; k < 50; k++ {
			if g.Y[k] <= 0 || g.Y[k] >= 1 {
				t.Fatalf("peak position %v out of (0,1)", g.Y[k])
			}
			if g.Y[50+k] < 0 {
				t.Fatalf("negative intensity %v", g.Y[50+k])
			}
		}
	}
}

func TestSmoothSpectrumShape(t *testing.T) {
	d := AISDExSmooth(Config{NumGraphs: 20, SpectrumBins: 200})
	g, _ := d.Sample(3)
	if len(g.Y) != 200 {
		t.Fatalf("smooth target dim %d", len(g.Y))
	}
	var sum float64
	for _, v := range g.Y {
		if v < 0 {
			t.Fatalf("negative smoothed intensity %v", v)
		}
		sum += float64(v)
	}
	if sum == 0 {
		t.Fatal("smoothed spectrum is all zeros")
	}
}

func TestSmoothSpectrumConservesMass(t *testing.T) {
	// The Gaussian-smoothed spectrum integrates to roughly the sum of peak
	// intensities (each unit peak contributes sigma*sqrt(2pi)*bins grid
	// mass).
	pos := []float32{0.5}
	inten := []float32{2}
	bins := 1000
	sigma := 0.01
	out := SmoothSpectrum(pos, inten, bins, sigma)
	var mass float64
	for _, v := range out {
		mass += float64(v)
	}
	want := 2 * sigma * math.Sqrt(2*math.Pi) * float64(bins)
	if math.Abs(mass-want)/want > 0.02 {
		t.Fatalf("smoothed mass %v, want %v", mass, want)
	}
}

func TestSmoothSpectrumEdgePeaks(t *testing.T) {
	// Peaks at the grid edges must not write out of bounds.
	out := SmoothSpectrum([]float32{0.001, 0.999}, []float32{1, 1}, 100, 0.05)
	if len(out) != 100 {
		t.Fatal("wrong grid size")
	}
	if out[0] <= 0 || out[99] <= 0 {
		t.Fatal("edge peaks lost")
	}
}

func TestSmoothSpectrumSkipsZeroIntensity(t *testing.T) {
	out := SmoothSpectrum([]float32{0.5}, []float32{0}, 100, 0.01)
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero-intensity peak contributed mass")
		}
	}
}

func TestDatasetBytesPerSampleOrdering(t *testing.T) {
	// The paper's Table 1 size ordering: smooth >> ising > discrete ~ homolumo
	// per sample (Ising: 125 nodes with 4 features; molecules average ~52
	// nodes). The smooth variant must dominate.
	cfg := Config{NumGraphs: 200}
	sizes := map[string]int64{}
	for _, d := range allDatasets(cfg) {
		st, err := ComputeStats(d, 200)
		if err != nil {
			t.Fatal(err)
		}
		sizes[d.Name()] = st.MeanBytesPFF
	}
	if !(sizes["ORNL AISD-Ex (Smooth)"] > sizes["ORNL AISD-Ex (Discrete)"]) {
		t.Fatalf("smooth (%d B) not larger than discrete (%d B)",
			sizes["ORNL AISD-Ex (Smooth)"], sizes["ORNL AISD-Ex (Discrete)"])
	}
	if !(sizes["ORNL AISD-Ex (Discrete)"] > sizes["AISD HOMO-LUMO"]) {
		t.Fatalf("discrete (%d B) not larger than homo-lumo (%d B)",
			sizes["ORNL AISD-Ex (Discrete)"], sizes["AISD HOMO-LUMO"])
	}
}

func TestComputeStats(t *testing.T) {
	d := Ising(Config{NumGraphs: 1000})
	st, err := ComputeStats(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumGraphs != 1000 {
		t.Fatalf("NumGraphs = %d", st.NumGraphs)
	}
	if st.TotalNodes != 125*1000 {
		t.Fatalf("TotalNodes = %d, want 125000", st.TotalNodes)
	}
	if st.TotalEdges != 600*1000 {
		t.Fatalf("TotalEdges = %d, want 600000", st.TotalEdges)
	}
	if st.MeanBytesPFF <= 0 || st.TotalBytesPFF <= 0 {
		t.Fatal("byte stats missing")
	}
}

func TestLabelsAreSmoothFunctionals(t *testing.T) {
	// Property: the HOMO-LUMO label depends only on the graph, not on
	// hidden state — regenerating from the decoded bytes gives the same
	// label (quick.Check over ids).
	d := HomoLumo(Config{NumGraphs: 5000})
	f := func(raw uint16) bool {
		id := int64(raw) % int64(d.Len())
		g, err := d.Sample(id)
		if err != nil {
			return false
		}
		s := scratch{n: g.NumNodes, edges: g.NumEdges()}
		copy(s.nodeFeat[:], g.NodeFeat)
		return g.Y[0] == homoLumoGap(&s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnableCacheReturnsSameSamples(t *testing.T) {
	plain := HomoLumo(Config{NumGraphs: 30})
	cached := HomoLumo(Config{NumGraphs: 30})
	for i := 0; i < 2; i++ { // idempotent
		if err := cached.EnableCache(); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 30; id++ {
		a, _ := plain.Sample(id)
		b, _ := cached.Sample(id)
		ae, be := a.Encode(), b.Encode()
		if len(ae) != len(be) {
			t.Fatalf("cached sample %d differs in size", id)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("cached sample %d differs at byte %d", id, i)
			}
		}
		// A Sample result is the caller's own: changing it reaches
		// neither the next Sample nor the cached bytes.
		b.NodeFeat[0]++
		b.EdgeSrc[0] = b.EdgeDst[0]
		b.Y[0] = -1
		c, _ := cached.Sample(id)
		if !bytes.Equal(c.Encode(), ae) {
			t.Fatalf("mutating one Sample(%d) result changed another", id)
		}
		if raw, _ := cached.AppendSample(nil, id); !bytes.Equal(raw, ae) {
			t.Fatalf("mutating a Sample(%d) result changed the cached bytes", id)
		}
	}
}

func TestSamplesOwnTheirFeaturesAndLabels(t *testing.T) {
	for _, d := range allDatasets(Config{NumGraphs: 10}) {
		a, _ := d.Sample(5)
		b, _ := d.Sample(5)
		if &a.NodeFeat[0] == &b.NodeFeat[0] {
			t.Errorf("%s: two samples share NodeFeat", d.Name())
		}
		if &a.Y[0] == &b.Y[0] {
			t.Errorf("%s: two samples share Y", d.Name())
		}
		if d.EdgeFeatDim() == 0 && &a.EdgeSrc[0] == &b.EdgeSrc[0] {
			t.Errorf("%s: two molecules share EdgeSrc", d.Name())
		}
	}
}

// TestConcurrentGenerationDeterministic generates the same ids from eight
// goroutines at once (the first of them also builds the shared Ising
// lattice) and checks the bytes against a sequential pass.
func TestConcurrentGenerationDeterministic(t *testing.T) {
	const n, workers = 40, 8
	for _, d := range allDatasets(Config{NumGraphs: n}) {
		got := make([][][]byte, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = make([][]byte, n)
				for id := range got[w] {
					g, err := d.Sample(int64(id))
					if err != nil {
						t.Error(err)
						return
					}
					got[w][id] = g.Encode()
				}
			}(w)
		}
		wg.Wait()
		for id := int64(0); id < n; id++ {
			g, _ := d.Sample(id)
			want := g.Encode()
			for w := range got {
				if string(got[w][id]) != string(want) {
					t.Fatalf("%s[%d]: goroutine %d's bytes differ from a sequential pass", d.Name(), id, w)
				}
			}
		}
	}
}
