package datasets

import "testing"

// BenchmarkGenerate times one sample's generation, without Encode, for
// each dataset (make bench-allocs holds its allocations).
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
