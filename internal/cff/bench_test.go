package cff

import (
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/vtime"
)

// BenchmarkRealReadSample measures the true wall-clock cost of the CFF
// access pattern on the local filesystem: one positional read inside an
// already-open container per access (no per-sample metadata op), into
// one reused buffer.
func BenchmarkRealReadSample(b *testing.B) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 512})
	dir := b.TempDir()
	if err := Write(dir, ds, 4); err != nil {
		b.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
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

// BenchmarkRealWrite measures container materialization throughput.
func BenchmarkRealWrite(b *testing.B) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Write(b.TempDir(), ds, 4); err != nil {
			b.Fatal(err)
		}
	}
}
