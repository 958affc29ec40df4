package datasets

import "testing"

// BenchmarkGenerate times Sample for each dataset: one sample generated,
// encoded and decoded into a Graph of its own (make bench-allocs holds its
// allocations).
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		d    *Dataset
	}{
		{"ising", Ising(Config{})},
		{"homolumo", HomoLumo(Config{})},
		{"discrete", AISDExDiscrete(Config{})},
		{"smooth", AISDExSmooth(Config{})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.d.Sample(int64(i % c.d.Len())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendSample times one sample's generation straight into wire
// encoding, into a buffer with room for it: make bench-allocs holds it to
// no allocation at all. Smooth, whose grid is allocated, is left out.
func BenchmarkAppendSample(b *testing.B) {
	for _, c := range []struct {
		name string
		d    *Dataset
	}{
		{"ising", Ising(Config{})},
		{"homolumo", HomoLumo(Config{})},
		{"discrete", AISDExDiscrete(Config{})},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 1<<16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = c.d.AppendSample(buf[:0], int64(i%c.d.Len())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
