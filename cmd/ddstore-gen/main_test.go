package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"ddstore/internal/cff"
	"ddstore/internal/datasets"
	"ddstore/internal/pff"
)

// TestRunUsage: a missing -out, an unknown dataset and an unknown format
// exit 2 before anything is written.
func TestRunUsage(t *testing.T) {
	out := t.TempDir()
	for _, args := range [][]string{
		{"-n", "8"},
		{"-dataset", "qm9", "-n", "8", "-out", out},
		{"-format", "hdf5", "-n", "8", "-out", out},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestWrittenDirectoriesServeTheDataset: a PFF directory and a CFF
// directory written by the command serve every sample byte-equal to the
// generator's wire encoding.
func TestWrittenDirectoriesServeTheDataset(t *testing.T) {
	const n = 64
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	type sampleStore interface {
		AppendSample(buf []byte, id int64) ([]byte, error)
	}
	for _, format := range []string{"pff", "cff"} {
		dir := filepath.Join(t.TempDir(), format)
		if code := run([]string{"-dataset", "homolumo", "-n", "64", "-format", format, "-parts", "3", "-out", dir}); code != 0 {
			t.Fatalf("%s: exit status %d", format, code)
		}
		var st sampleStore
		var length int
		switch format {
		case "pff":
			s, err := pff.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st, length = s, s.Len()
		case "cff":
			s, err := cff.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, length = s, s.Len()
		}
		if length != n {
			t.Fatalf("%s: %d samples, want %d", format, length, n)
		}
		for id := int64(0); id < n; id++ {
			got, err := st.AppendSample(nil, id)
			if err != nil {
				t.Fatalf("%s sample %d: %v", format, id, err)
			}
			want, err := ds.AppendSample(nil, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s sample %d: %d bytes differ from the generator's %d", format, id, len(got), len(want))
			}
		}
	}
}
