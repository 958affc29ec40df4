package cff

import (
	"bytes"
	"encoding/binary"
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

func TestPartRangeCoversAll(t *testing.T) {
	for _, tc := range []struct{ total, parts int }{
		{10, 1}, {10, 3}, {10, 10}, {7, 4}, {100, 8}, {1, 1},
	} {
		covered := 0
		var prevHi int64
		for p := 0; p < tc.parts; p++ {
			lo, hi := partRange(tc.total, tc.parts, p)
			if lo != prevHi {
				t.Fatalf("total=%d parts=%d: part %d starts at %d, want %d", tc.total, tc.parts, p, lo, prevHi)
			}
			covered += int(hi - lo)
			prevHi = hi
		}
		if covered != tc.total {
			t.Fatalf("total=%d parts=%d: covered %d", tc.total, tc.parts, covered)
		}
	}
}

func TestWriteOpenReadRoundTrip(t *testing.T) {
	ds := datasets.Ising(datasets.Config{NumGraphs: 25})
	dir := t.TempDir()
	if err := Write(dir, ds, 4); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 25 || st.Name() != ds.Name() || st.meta.OutputDim != 1 {
		t.Fatalf("metadata mismatch: %+v", st.meta)
	}
	for id := int64(0); id < 25; id++ {
		got, err := st.ReadSample(id)
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		want, _ := ds.Sample(id)
		if got.ID != id || got.Y[0] != want.Y[0] {
			t.Fatalf("sample %d mismatch", id)
		}
	}
}

func TestMorePartsThanSamples(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	dir := t.TempDir()
	if err := Write(dir, ds, 10); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.meta.NumParts != 3 {
		t.Fatalf("NumParts = %d, want clamped to 3", st.meta.NumParts)
	}
	for id := int64(0); id < 3; id++ {
		if _, err := st.ReadSample(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteRejectsBadParts(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	if err := Write(t.TempDir(), ds, 0); err == nil {
		t.Fatal("zero parts accepted")
	}
}

func TestReadSampleUnknownID(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	dir := t.TempDir()
	if err := Write(dir, ds, 1); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.ReadSample(99); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOpenDetectsCorruptFooter(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	dir := t.TempDir()
	if err := Write(dir, ds, 1); err != nil {
		t.Fatal(err)
	}
	// Truncate the container: the index geometry check must fire.
	path := partPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt container accepted")
	}
}

func TestOpenDetectsBadMagic(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	dir := t.TempDir()
	if err := Write(dir, ds, 1); err != nil {
		t.Fatal(err)
	}
	path := partPath(dir, 0)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("bad footer magic accepted")
	}
}

func TestOpenMissingMeta(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of empty dir succeeded")
	}
}

func TestContainerFileCountIsSmall(t *testing.T) {
	// The whole point of CFF: the number of files does not scale with the
	// number of samples.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 200})
	dir := t.TempDir()
	if err := Write(dir, ds, 4); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 { // 4 parts + meta.json
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("dir has %d entries: %v", len(entries), names)
	}
	_ = filepath.Join // keep import if unused in future edits
}

func TestSimMatchesGenerator(t *testing.T) {
	ds := datasets.AISDExSmooth(datasets.Config{NumGraphs: 40, SpectrumBins: 50})
	fs := pfs.New(cluster.Perlmutter(), 8)
	layout, err := RegisterSim(fs, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumFiles() != 4 {
		t.Fatalf("registered %d virtual containers", fs.NumFiles())
	}
	clock := &vtime.Clock{}
	sim := NewSim(fs, ds, layout, clock, vtime.NewRNG(1))
	g, cost, err := sim.ReadSampleTimed(13)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ds.Sample(13)
	if g.ID != 13 || g.NumNodes != want.NumNodes {
		t.Fatal("sim sample differs from generator")
	}
	if cost <= 0 || clock.Now() != cost {
		t.Fatalf("cost accounting broken: cost=%v clock=%v", cost, clock.Now())
	}
}

func TestSimAmortizesMetadata(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 500})
	fs := pfs.New(cluster.Perlmutter(), 64)
	layout, err := RegisterSim(fs, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(fs, ds, layout, &vtime.Clock{}, vtime.NewRNG(1))
	for id := int64(0); id < 500; id++ {
		if _, err := sim.ReadSample(id); err != nil {
			t.Fatal(err)
		}
	}
	// Two containers: exactly two metadata ops for 500 samples.
	if sim.reader.MetadataOps != 2 {
		t.Fatalf("MetadataOps = %d, want 2", sim.reader.MetadataOps)
	}
}

func TestSimSmallDatasetHitsPageCache(t *testing.T) {
	// The Ising effect (paper §4.4): a small containerized dataset ends up
	// served mostly from the page cache after the first epoch.
	ds := datasets.Ising(datasets.Config{NumGraphs: 300})
	fs := pfs.New(cluster.Perlmutter(), 4)
	layout, err := RegisterSim(fs, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(fs, ds, layout, &vtime.Clock{}, vtime.NewRNG(1))
	// Epoch 1: sequential-ish.
	for id := int64(0); id < 300; id++ {
		if _, err := sim.ReadSample(id); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := sim.reader.CacheHits, sim.reader.CacheMisses
	// Epoch 2: shuffled.
	perm := make([]int, 300)
	for i := range perm {
		perm[i] = i
	}
	vtime.NewRNG(2).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, id := range perm {
		if _, err := sim.ReadSample(int64(id)); err != nil {
			t.Fatal(err)
		}
	}
	h2 := sim.reader.CacheHits - h1
	if h2 < 290 {
		t.Fatalf("second epoch cache hits = %d/300 (first epoch: %d hits %d misses)", h2, h1, m1)
	}
}

func TestSimRangeCheck(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	fs := pfs.New(cluster.Laptop(), 2)
	layout, _ := RegisterSim(fs, ds, 1)
	sim := NewSim(fs, ds, layout, &vtime.Clock{}, vtime.NewRNG(1))
	if _, err := sim.ReadSample(3); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestRegisterSimRejectsBadParts(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 3})
	fs := pfs.New(cluster.Laptop(), 2)
	if _, err := RegisterSim(fs, ds, 0); err == nil {
		t.Fatal("zero parts accepted")
	}
}

func FuzzReadPartIndex(f *testing.F) {
	// Seed with a real container and mutations of it.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 4})
	dir := f.TempDir()
	if err := Write(dir, ds, 1); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(partPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// readPartIndex must never panic and never claim more samples than
		// the bytes can hold.
		path := filepath.Join(t.TempDir(), "part.ddc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		index, err := readPartIndex(path)
		if err != nil {
			return
		}
		if len(index)*20+24 > len(data)+20 {
			t.Fatalf("index of %d entries cannot fit in %d bytes", len(index), len(data))
		}
	})
}

func TestPartNamesMatchTheirFormat(t *testing.T) {
	for _, part := range []int{0, 7, 42, 999, 1000, 9999, 10000, 123456} {
		if got, want := partFile(part), fmt.Sprintf("part-%04d.ddc", part); got != want {
			t.Fatalf("partFile(%d) = %q, want %q", part, got, want)
		}
	}
	ds := datasets.Ising(datasets.Config{NumGraphs: 20})
	layout, err := RegisterSim(pfs.New(cluster.Laptop(), 1), ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for part, got := range layout.partNames {
		if want := fmt.Sprintf("cff/%s/part-%04d.ddc", ds.Name(), part); got != want {
			t.Fatalf("part %d is %q, want %q", part, got, want)
		}
	}
}

// corruptPart rewrites the one part of dir through edit, which gets the
// part's bytes and each sample's 20-byte index entry (id, offset, length).
func corruptPart(t *testing.T, dir string, edit func(part []byte, entry func(id int64) []byte)) {
	t.Helper()
	path := partPath(dir, 0)
	part, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := part[len(part)-16:]
	index := part[binary.LittleEndian.Uint64(tail):]
	entry := func(id int64) []byte {
		for i := 0; i < int(binary.LittleEndian.Uint32(tail[8:])); i++ {
			if e := index[20*i : 20*i+20]; int64(binary.LittleEndian.Uint64(e)) == id {
				return e
			}
		}
		t.Fatalf("sample %d not in the index", id)
		return nil
	}
	edit(part, entry)
	if err := os.WriteFile(path, part, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAppendSampleServesStoredBytes: AppendSample hands out each sample as
// stored in its container — the generator's wire encoding, with no decode
// — and refuses a corrupt one with an error naming its id, leaving the
// caller's buffer as it was. It refuses every sample Decode refuses, and
// well-formed bytes that hold another sample; ReadSample refuses the same.
func TestAppendSampleServesStoredBytes(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	dir := t.TempDir()
	if err := Write(dir, ds, 1); err != nil {
		t.Fatal(err)
	}
	length := func(e []byte, delta int32) {
		binary.LittleEndian.PutUint32(e[16:], uint32(int32(binary.LittleEndian.Uint32(e[16:]))+delta))
	}
	corrupt := map[int64]bool{2: true, 3: true, 5: true, 6: true}
	corruptPart(t, dir, func(part []byte, entry func(id int64) []byte) {
		part[binary.LittleEndian.Uint64(entry(2)[8:])] ^= 0xff // flipped magic
		length(entry(3), -4)                                   // truncated
		length(entry(5), +4)                                   // trailing bytes
		copy(entry(6)[8:], entry(7)[8:])                       // another sample
	})
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prefix := []byte("prefix:")
	for id := int64(0); id < 8; id++ {
		got, err := st.AppendSample(prefix, id)
		_, readErr := st.ReadSample(id)
		if !corrupt[id] {
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
			t.Fatalf("corrupt sample %d: ReadSample accepted it", id)
		}
		if id != 6 {
			l := st.loc[id]
			raw := make([]byte, l.length)
			st.parts[l.part].ReadAt(raw, l.offset)
			if _, err := graph.Decode(raw); err == nil {
				t.Fatalf("sample %d: the test's corruption did not make Decode refuse the bytes", id)
			}
		}
	}
}
