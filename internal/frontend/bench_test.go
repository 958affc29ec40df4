package frontend

import (
	"testing"

	"ddstore/internal/transport"
)

// BenchmarkAdmit is the admit that never binds: one unlimited tenant, idle
// workers, so the ticket is queued, granted and released without waiting.
// `make bench-allocs` holds it to zero allocations per op.
func BenchmarkAdmit(b *testing.B) {
	fe, err := New(Options{Tenants: []TenantConfig{{Name: "alpha"}}})
	if err != nil {
		b.Fatal(err)
	}
	defer fe.Close()
	gate, err := fe.AdmitConn("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer gate.Close()
	if err := gate.Hello("alpha"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release, err := gate.Admit(transport.ClassLookup)
		if err != nil {
			b.Fatal(err)
		}
		release(1400)
	}
}
