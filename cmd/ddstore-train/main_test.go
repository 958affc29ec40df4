package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ddstore/internal/obs"
)

// runCaptured runs the command line with stdout sent to a file and returns
// the exit status and what was printed.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestRunReportsLoadLatency: a short DDStore run prints rank 0's load
// latency percentiles over every sample it loaded, the per-region table
// once and the loading skew one row per epoch, and its metrics snapshot
// carries the engine's latency histogram and no percentile gauges.
func TestRunReportsLoadLatency(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	code, out := runCaptured(t, "-machine", "laptop", "-ranks", "4", "-dataset", "homolumo", "-n", "200",
		"-method", "ddstore", "-batch", "8", "-epochs", "2", "-steps", "2", "-metrics-json", metrics)
	if code != 0 {
		t.Fatalf("exit status %d, output:\n%s", code, out)
	}
	m := regexp.MustCompile(`rank 0 load latency: p50 \S+  p95 \S+  p99 \S+ over (\d+) samples`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no latency line in:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n != 2*2*8 {
		t.Errorf("latency line counts %d samples, want 2 epochs x 2 steps x 8", n)
	}
	if n := len(regexp.MustCompile(`(?m)^ *CPU-Loading +\S+ +\d+ +[\d.]+%$`).FindAllString(out, -1)); n != 1 {
		t.Errorf("the per-region table prints %d CPU-Loading rows, want 1:\n%s", n, out)
	}
	if strings.Contains(out, "cluster time-share") {
		t.Errorf("a second time-share table is printed:\n%s", out)
	}
	_, skew, ok := strings.Cut(out, "per-epoch CPU-Loading skew")
	if !ok {
		t.Fatalf("no skew block in:\n%s", out)
	}
	if rows := regexp.MustCompile(`(?m)^ +\d+ +\S+ +\S+ +\d+ +\S+ +\d+ +\S+x `).FindAllString(skew, -1); len(rows) != 2 {
		t.Errorf("skew block has %d rows, want one per epoch (2):\n%s", len(rows), skew)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var observed uint64
	for _, h := range snap.Histograms {
		if h.Name == "ddstore_fetch_latency_seconds" {
			observed += h.Count
		}
	}
	if observed == 0 {
		t.Error("snapshot has no ddstore_fetch_latency_seconds observation")
	}
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_quantile_seconds") || strings.HasPrefix(name, "ddstore_fetch_latency_window") {
			t.Errorf("snapshot exports %s: latency percentiles come from the histogram", name)
		}
	}
}

// TestRunUsage: a command line naming something that does not exist, or
// setting a flag the chosen run would ignore, exits 2 before anything runs.
func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-method", "nfs"},
		{"-dataset", "qm9"},
		{"-machine", "frontier"},
		{"-no-such-flag"},
		{"-ranks", "0"},
		{"-method", "pff", "-cache-bytes", "100000"},
		{"-method", "cff", "-cache-bytes", "0"},
		{"-method", "pff", "-width", "2"},
		{"-method", "cff", "-width", "0"},
		{"-hidden", "64"},
	} {
		if code, _ := runCaptured(t, args...); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// goldenArgs are the command lines testdata/train.golden pins: each method,
// DDStore's width, cache and local-shuffle variants, and the real model,
// all at the laptop scale of TestRunReportsLoadLatency.
var goldenArgs = [][]string{
	{"-ranks", "4", "-method", "ddstore"},
	{"-ranks", "4", "-method", "pff"},
	{"-ranks", "4", "-method", "cff"},
	{"-ranks", "4", "-method", "ddstore", "-width", "2"},
	{"-ranks", "4", "-method", "ddstore", "-cache-bytes", "65536"},
	{"-ranks", "4", "-method", "ddstore", "-local-shuffle"},
	{"-ranks", "2", "-method", "ddstore", "-real"},
}

// TestTrainGolden: every command line of goldenArgs prints exactly the
// stdout recorded in testdata/train.golden, whatever GOMAXPROCS is (run it
// at -cpu 1,2,4). A change that moves a number shows up as a diff of this
// file; regenerate it deliberately with
//
//	UPDATE_GOLDEN=1 go test ./cmd/ddstore-train -run TestTrainGolden
func TestTrainGolden(t *testing.T) {
	var out strings.Builder
	for _, extra := range goldenArgs {
		args := append([]string{"-machine", "laptop", "-dataset", "homolumo", "-n", "200",
			"-batch", "8", "-epochs", "2", "-steps", "2"}, extra...)
		code, stdout := runCaptured(t, args...)
		if code != 0 {
			t.Fatalf("run(%q) = %d, output:\n%s", args, code, stdout)
		}
		fmt.Fprintf(&out, "$ ddstore-train %s\n%s\n", strings.Join(args, " "), stdout)
	}
	path := filepath.Join("testdata", "train.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to generate)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("training output drifted from %s at line %d — regenerate with UPDATE_GOLDEN=1 if intentional\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("training output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
