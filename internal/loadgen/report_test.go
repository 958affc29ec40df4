package loadgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ddstore/internal/transport"
)

// fixedArtifact builds an artifact with every field populated and no
// environment-dependent values, so its JSON encoding is reproducible.
func fixedArtifact() *Artifact {
	return &Artifact{
		Schema:    ArtifactSchema,
		Kind:      "loadgen",
		Title:     "golden fixture",
		CreatedAt: "2026-08-08T00:00:00Z",
		Host: Host{
			GoVersion: "go1.22.0", OS: "linux", Arch: "amd64", CPUs: 4, GOMAXPROCS: 4,
		},
		Addrs: []string{"127.0.0.1:7001", "127.0.0.1:7002"},
		Seed:  42,
		Pool:  transport.PoolStats{Dials: 5, Reuses: 7},
		Phases: []PhaseResult{
			{
				Name: "closed-cold-c4", Mode: "closed", Workers: 4,
				BatchMix: 0.25, BatchSize: 8,
				DurationS: 1.5, Requests: 256, Samples: 704, Errors: 2,
				Retries: 3, Reconnects: 1, GiveUps: 1, Bytes: 1048576,
				AchievedQPS: 169.33, SamplesPerS: 469.33,
				P50ms: 1.25, P95ms: 3.5, P99ms: 7.75, MaxMs: 12.5,
				Server: map[string]float64{
					`ddstore_serve_requests_total{op="get"}`: 192,
				},
			},
			{
				Name: "open-qps200", Mode: "open", Workers: 4, TargetQPS: 200,
				BatchMix: 0.25, BatchSize: 8, Dropped: 9,
				DurationS: 0.8, Requests: 160, Samples: 440, Bytes: 524288,
				AchievedQPS: 200, SamplesPerS: 550,
				P50ms: 0.5, P95ms: 1.5, P99ms: 2.5, MaxMs: 4,
			},
		},
	}
}

// TestArtifactGolden pins the artifact JSON schema: field names, types,
// ordering, and indentation. BENCH_*.json files are committed and diffed
// across PRs, so renaming or retyping a field breaks comparability — a
// deliberate change must bump ArtifactSchema and regenerate the golden:
//
//	UPDATE_GOLDEN=1 go test ./internal/loadgen -run TestArtifactGolden
func TestArtifactGolden(t *testing.T) {
	got, err := fixedArtifact().JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "artifact_v1.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact JSON drifted from %s — if intentional, bump ArtifactSchema and regenerate with UPDATE_GOLDEN=1\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestArtifactRoundTripsThroughFile writes and re-reads an artifact.
func TestArtifactRoundTripsThroughFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := fixedArtifact().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || b[len(b)-1] != '\n' {
		t.Error("artifact file not newline-terminated")
	}
}

// TestSweepPlan checks the standard phase plan: one cold+warm closed pair
// per ramp step, then a single open-loop tail; quick mode pins the
// deterministic request count, and every value is the caller's (the
// defaults live with the ddstore-bench flags, so -mix 0 means 0).
func TestSweepPlan(t *testing.T) {
	phases := Sweep(SweepOptions{Quick: true, Clients: 4, Ramp: []int{1, 8}, QPS: 200, Mix: 0.5})
	if len(phases) != 5 {
		t.Fatalf("%d phases for a 2-step ramp, want 5 (2×cold+warm, 1×open)", len(phases))
	}
	wantNames := []string{"closed-cold-c1", "closed-warm-c1", "closed-cold-c8", "closed-warm-c8", "open-qps200"}
	for i, ph := range phases {
		if ph.Name != wantNames[i] {
			t.Errorf("phase %d named %q, want %q", i, ph.Name, wantNames[i])
		}
		if ph.Mix != 0.5 {
			t.Errorf("%s: mix %g, want the caller's 0.5", ph.Name, ph.Mix)
		}
	}
	for _, ph := range phases[:4] {
		if ph.Mode != Closed || ph.MaxRequests != QuickClosedRequests {
			t.Errorf("%s: mode=%s max=%d, want closed/%d", ph.Name, ph.Mode, ph.MaxRequests, QuickClosedRequests)
		}
	}
	// Each cold/warm pair shares a pinned seed (warm replays cold's request
	// stream); distinct ramp steps draw distinct streams.
	if phases[0].Seed == 0 || phases[0].Seed != phases[1].Seed {
		t.Errorf("cold/warm seeds %d/%d, want equal and non-zero", phases[0].Seed, phases[1].Seed)
	}
	if phases[2].Seed != phases[3].Seed || phases[0].Seed == phases[2].Seed {
		t.Errorf("ramp-step seeds %d/%d/%d: want per-pair pinning", phases[0].Seed, phases[2].Seed, phases[3].Seed)
	}
	if open := phases[4]; open.Mode != Open || open.TargetQPS != 200 || open.Workers != 4 || open.Duration <= 0 {
		t.Errorf("open phase misbuilt: %+v", open)
	}

	// Full mode uses durations, not request caps, and a zero mix stays zero.
	full := Sweep(SweepOptions{Clients: 2, QPS: 50, Duration: 3 * time.Second})
	if len(full) != 3 {
		t.Fatalf("%d phases without a ramp, want 3", len(full))
	}
	for _, ph := range full {
		if ph.MaxRequests != 0 || ph.Duration != 3*time.Second || ph.Workers != 2 || ph.Mix != 0 {
			t.Errorf("%s: max=%d dur=%v workers=%d mix=%g, want duration-bounded, 2 workers, all single gets",
				ph.Name, ph.MaxRequests, ph.Duration, ph.Workers, ph.Mix)
		}
	}
	if err := validate(Config{Addrs: []string{"x"}, Phases: full}); err != nil {
		t.Errorf("full plan does not validate: %v", err)
	}
}
