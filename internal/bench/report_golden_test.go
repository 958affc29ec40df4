package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fixedReport populates every Report field with environment-independent
// values so its JSON encoding is reproducible.
func fixedReport() *Report {
	r := &Report{
		ID:      "fig4",
		Title:   "golden fixture",
		Columns: []string{"dataset", "throughput", "p99-ms"},
	}
	r.AddRow("Ising", 102000.0, 0.89)
	r.AddRow("AISD HOMO-LUMO", 98000.0, 1.21)
	r.AddNote("expected shape: DDStore >> CFF > PFF")
	return r
}

// TestReportJSONGolden pins the bench Report JSON schema — the other half
// of the BENCH_*.json artifact surface (ddstore-bench -json). Field
// renames break cross-PR diffs; a deliberate schema change must
// regenerate the golden:
//
//	UPDATE_GOLDEN=1 go test ./internal/bench -run TestReportJSONGolden
func TestReportJSONGolden(t *testing.T) {
	got, err := fixedReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(got), '\n')
	path := filepath.Join("testdata", "report_v1.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to generate)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("report JSON drifted from %s — regenerate with UPDATE_GOLDEN=1 if intentional\ngot:\n%s\nwant:\n%s", path, out, want)
	}
}

// TestQuickSuiteGolden pins the paper's numbers: every experiment, run at
// the -quick profile with the default seed, must print exactly the JSON of
// testdata/quick.golden — the same bytes as `ddstore-bench -exp all -quick
// -json` prints for those sections. A change
// that moves a paper number shows up as a diff of this file; regenerate it
// deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/bench -run TestQuickSuiteGolden
//
// Run it at -cpu 1,2,4: the numbers must not depend on GOMAXPROCS. The run
// memo is dropped first so each processor count computes its own runs.
func TestQuickSuiteGolden(t *testing.T) {
	ResetCaches()
	var out bytes.Buffer
	for _, e := range Experiments() {
		r, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		js, err := r.JSON()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out.WriteString(js)
		out.WriteByte('\n')
	}
	path := filepath.Join("testdata", "quick.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to generate)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("quick suite drifted from %s at line %d — regenerate with UPDATE_GOLDEN=1 if intentional\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("quick suite drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
