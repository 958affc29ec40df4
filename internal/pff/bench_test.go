package pff

import (
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/vtime"
)

// BenchmarkRealReadSample measures the true wall-clock cost of the PFF
// access pattern on the local filesystem: open + read + check of one
// sample file per access, into one reused buffer. Compare with cff.BenchmarkRealReadSample and
// core's in-memory load benchmarks — the real-time ordering mirrors the
// paper's: per-object files pay the metadata cost on every access.
func BenchmarkRealReadSample(b *testing.B) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 512})
	dir := b.TempDir()
	if err := Write(dir, ds, 0, 512); err != nil {
		b.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	rng := vtime.NewRNG(1)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = st.AppendSample(buf[:0], int64(rng.Intn(512))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealWrite measures dataset materialization throughput.
func BenchmarkRealWrite(b *testing.B) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Write(b.TempDir(), ds, 0, 256); err != nil {
			b.Fatal(err)
		}
	}
}
