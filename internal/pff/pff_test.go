package pff

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddstore/internal/cluster"
	"ddstore/internal/datasets"
	"ddstore/internal/graph"
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

func TestSimPathMatchesItsFormat(t *testing.T) {
	for _, id := range []int64{0, 1, 15, 16, 255, 256, 4097, 104999, 1 << 40} {
		if got, want := simPath("AISD HOMO-LUMO", id), fmt.Sprintf("pff/%s/%02x/%d.bin", "AISD HOMO-LUMO", id%256, id); got != want {
			t.Fatalf("simPath(%d) = %q, want %q", id, got, want)
		}
		if got, want := samplePath("d", id), filepath.Join("d", fmt.Sprintf("%02x", id%256), fmt.Sprintf("%d.bin", id)); got != want {
			t.Fatalf("samplePath(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestAppendSampleServesStoredBytes: AppendSample hands out each file as
// stored — the generator's wire encoding, with no decode — and refuses a
// corrupt file with an error naming its id, leaving the caller's buffer
// as it was. It refuses every file Decode refuses, and a well-formed file
// that holds another sample; ReadSample refuses the same files.
func TestAppendSampleServesStoredBytes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	dir := t.TempDir()
	if err := Write(dir, ds, 0, 8); err != nil {
		t.Fatal(err)
	}
	other, _ := ds.AppendSample(nil, 7)
	corrupt := map[int64]func(raw []byte) []byte{
		2: func(raw []byte) []byte { raw[0] ^= 0xff; return raw },       // flipped magic
		3: func(raw []byte) []byte { return raw[:len(raw)-4] },          // truncated
		5: func(raw []byte) []byte { return append(raw, 0, 0, 0, 0) },   // trailing bytes
		6: func(raw []byte) []byte { return append(raw[:0], other...) }, // another sample
	}
	for id, edit := range corrupt {
		raw, err := os.ReadFile(samplePath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(samplePath(dir, id), edit(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix:")
	for id := int64(0); id < 8; id++ {
		got, err := st.AppendSample(prefix, id)
		_, readErr := st.ReadSample(id)
		file, _ := os.ReadFile(samplePath(dir, id))
		_, decodeErr := graph.Decode(file)
		if corrupt[id] == nil {
			want, _ := ds.AppendSample(bytes.Clone(prefix), id)
			if err != nil || readErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("sample %d: AppendSample = %v, ReadSample = %v, or the bytes differ from the generator's", id, err, readErr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sample %d", id)) || !bytes.Equal(got, prefix) {
			t.Fatalf("corrupt sample %d: AppendSample = %q, %v; want the buffer back and an error naming the id", id, got, err)
		}
		if readErr == nil {
			t.Fatalf("corrupt sample %d: ReadSample accepted the file", id)
		}
		if id != 6 && decodeErr == nil {
			t.Fatalf("sample %d: the test's corruption did not make Decode refuse the file", id)
		}
	}
}
