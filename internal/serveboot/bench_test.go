package serveboot

import (
	"testing"

	"ddstore/internal/transport"
)

// BenchmarkServedGet is one single get through everything a booted server
// puts in its way: a tenant client, the hello it declared, the front end's
// admit and release, the op table, the preloaded chunk and the framed,
// checksummed reply. Its allocations per op are the per-message budget
// `make bench-allocs` holds: the caller's result slice and nothing else.
func BenchmarkServedGet(b *testing.B) {
	const n = 256
	inst, err := Boot(Config{Dataset: "homolumo", N: n, Tenants: "alpha"})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	cl, err := transport.DialOptions(inst.Addr(), transport.ClientOptions{Tenant: "alpha"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	raw, err := cl.GetRaw(0) // the hello, and every scratch slice grown once
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.GetRaw(int64(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}
