package pff

import (
	"testing"

	"ddstore/internal/cluster"
	"ddstore/internal/datasets"
	"ddstore/internal/pfs"
	"ddstore/internal/vtime"
)

func TestWriteOpenReadRoundTrip(t *testing.T) {
	ds := datasets.Ising(datasets.Config{NumGraphs: 20})
	dir := t.TempDir()
	if err := Write(dir, ds, 0, 20); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != ds.Name() || st.Len() != 20 ||
		st.meta.OutputDim != ds.OutputDim() ||
		st.meta.NodeFeatDim != ds.NodeFeatDim() ||
		st.meta.EdgeFeatDim != ds.EdgeFeatDim() {
		t.Fatalf("metadata mismatch: %+v", st.meta)
	}
	for id := int64(0); id < 20; id++ {
		got, err := st.ReadSample(id)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ds.Sample(id)
		if got.ID != id || got.Y[0] != want.Y[0] || got.NumNodes != want.NumNodes {
			t.Fatalf("sample %d mismatch", id)
		}
	}
}

func TestReadSampleRangeCheck(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	dir := t.TempDir()
	if err := Write(dir, ds, 0, 5); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadSample(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := st.ReadSample(5); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestWriteBadRange(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	if err := Write(t.TempDir(), ds, 3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := Write(t.TempDir(), ds, 0, 100); err == nil {
		t.Fatal("out-of-range hi accepted")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of empty dir succeeded")
	}
}

func TestPartialWrite(t *testing.T) {
	// Distributed generation: each writer materializes a slice.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 10})
	dir := t.TempDir()
	if err := Write(dir, ds, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, ds, 5, 10); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 10; id++ {
		if _, err := st.ReadSample(id); err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
	}
}

func TestSimMatchesGenerator(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 30})
	fs := pfs.New(cluster.Perlmutter(), 4)
	sizes, err := RegisterSim(fs, ds)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumFiles() != 30 {
		t.Fatalf("registered %d files", fs.NumFiles())
	}
	clock := &vtime.Clock{}
	sim := NewSim(fs, ds, sizes, clock, vtime.NewRNG(1))
	g, err := sim.ReadSample(7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ds.Sample(7)
	if g.ID != 7 || g.NumNodes != want.NumNodes {
		t.Fatal("sim sample differs from generator")
	}
	if clock.Now() <= 0 {
		t.Fatal("sim read charged no time")
	}
	if sim.Len() != 30 || sim.Name() != ds.Name() {
		t.Fatal("sim metadata wrong")
	}
}

func TestSimChargesMetadataPerSample(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 600})
	fs := pfs.New(cluster.Perlmutter(), 64)
	sizes, err := RegisterSim(fs, ds)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(fs, ds, sizes, &vtime.Clock{}, vtime.NewRNG(1))
	for id := int64(0); id < 600; id++ {
		if _, err := sim.ReadSample(id); err != nil {
			t.Fatal(err)
		}
	}
	// 600 distinct sample files >> 256 fd-cache slots: metadata every time.
	if sim.reader.MetadataOps != 600 {
		t.Fatalf("MetadataOps = %d, want 600", sim.reader.MetadataOps)
	}
}

func TestSimRangeCheck(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	fs := pfs.New(cluster.Laptop(), 2)
	sizes, _ := RegisterSim(fs, ds)
	sim := NewSim(fs, ds, sizes, &vtime.Clock{}, vtime.NewRNG(1))
	if _, err := sim.ReadSample(3); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, _, err := sim.ReadSampleTimed(-1); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestSimTimedLatencyRegime(t *testing.T) {
	// PFF per-sample latency at 64 ranks should sit in the paper's
	// millisecond regime (Table 2: medians 2.2–2.8 ms).
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 500})
	fs := pfs.New(cluster.Perlmutter(), 64)
	sizes, _ := RegisterSim(fs, ds)
	sim := NewSim(fs, ds, sizes, &vtime.Clock{}, vtime.NewRNG(5))
	var costs []float64
	for id := int64(0); id < 500; id++ {
		_, cost, err := sim.ReadSampleTimed(id)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, cost.Seconds()*1000)
	}
	med := median(costs)
	if med < 1.5 || med > 6 {
		t.Fatalf("PFF sim median latency %.3f ms, want paper regime 1.5–6 ms", med)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
