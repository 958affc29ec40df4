package serveboot

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddstore/internal/cff"
	"ddstore/internal/datasets"
	"ddstore/internal/pff"
	"ddstore/internal/transport"
)

// fileDirs writes ds as a PFF directory and as a one-part CFF directory and
// returns them by format.
func fileDirs(t *testing.T, ds *datasets.Dataset) map[string]string {
	t.Helper()
	dirs := map[string]string{"pff": t.TempDir(), "cff": t.TempDir()}
	if err := pff.Write(dirs["pff"], ds, 0, int64(ds.Len())); err != nil {
		t.Fatal(err)
	}
	if err := cff.Write(dirs["cff"], ds, 1); err != nil {
		t.Fatal(err)
	}
	return dirs
}

// fileConfig serves dir in the given format, preloaded or lazily.
func fileConfig(format, dir string, lazy bool) Config {
	cfg := Config{Hi: -1}
	if format == "pff" {
		cfg.PFFDir = dir
	} else {
		cfg.CFFDir = dir
	}
	if lazy {
		cfg.CacheBytes = 1 << 20
	}
	return cfg
}

// TestFileSourcesServeGeneratorBytes: a server over a PFF or a CFF
// directory, preloaded or lazy, serves every sample as the bytes the
// generator appends — the file's bytes, neither decoded nor re-encoded.
func TestFileSourcesServeGeneratorBytes(t *testing.T) {
	const n = 60
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	for format, dir := range fileDirs(t, ds) {
		for _, lazy := range []bool{false, true} {
			inst, err := Boot(fileConfig(format, dir, lazy))
			if err != nil {
				t.Fatalf("%s (lazy %t): %v", format, lazy, err)
			}
			cl, err := transport.Dial(inst.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				for id := int64(0); id < n; id++ {
					want, _ := ds.AppendSample(nil, id)
					if got, err := cl.GetRaw(id); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s (lazy %t) pass %d: sample %d is not the generator's bytes (%v)", format, lazy, pass, id, err)
					}
				}
			}
			cl.Close()
			inst.Close()
		}
	}
}

// TestCorruptFilesRefusedAtPreloadAndOnMiss: a sample whose stored bytes
// are corrupt fails a preloading boot with an error naming it, and fails a
// lazy server's miss on it while every other sample is still served.
func TestCorruptFilesRefusedAtPreloadAndOnMiss(t *testing.T) {
	const n, bad = 30, 13
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	var offset int64 = 8 // the part's header
	for id := int64(0); id < bad; id++ {
		raw, _ := ds.AppendSample(nil, id)
		offset += int64(len(raw))
	}
	type corruption struct {
		name, format string
		edit         func(dir string) error
	}
	editFile := func(path string, f func(raw []byte) []byte) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, f(raw), 0o644)
	}
	pffSample := func(dir string) string { return filepath.Join(dir, "0d", "13.bin") }
	for _, c := range []corruption{
		{"flipped magic", "pff", func(dir string) error {
			return editFile(pffSample(dir), func(raw []byte) []byte { raw[0] ^= 0xff; return raw })
		}},
		{"truncated", "pff", func(dir string) error {
			return editFile(pffSample(dir), func(raw []byte) []byte { return raw[:len(raw)-4] })
		}},
		{"trailing bytes", "pff", func(dir string) error {
			return editFile(pffSample(dir), func(raw []byte) []byte { return append(raw, 0, 0, 0, 0) })
		}},
		{"flipped magic", "cff", func(dir string) error {
			return editFile(filepath.Join(dir, "part-0000.ddc"), func(raw []byte) []byte { raw[offset] ^= 0xff; return raw })
		}},
	} {
		dir := fileDirs(t, ds)[c.format]
		if err := c.edit(dir); err != nil {
			t.Fatal(err)
		}
		if inst, err := Boot(fileConfig(c.format, dir, false)); err == nil {
			inst.Close()
			t.Fatalf("%s %s: a preloading boot took the corrupt sample", c.format, c.name)
		} else if !strings.Contains(err.Error(), "sample 13") {
			t.Fatalf("%s %s: preload error %q does not name sample 13", c.format, c.name, err)
		}

		inst, err := Boot(fileConfig(c.format, dir, true))
		if err != nil {
			t.Fatalf("%s %s: lazy boot: %v", c.format, c.name, err)
		}
		cl, err := transport.Dial(inst.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if raw, err := cl.GetRaw(bad); err == nil {
			t.Fatalf("%s %s: a lazy miss served %d corrupt bytes", c.format, c.name, len(raw))
		}
		for id := int64(0); id < n; id++ {
			if id == bad {
				continue
			}
			want, _ := ds.AppendSample(nil, id)
			if got, err := cl.GetRaw(id); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %s: sample %d after the refused miss: %v", c.format, c.name, id, err)
			}
		}
		cl.Close()
		inst.Close()
	}
}
