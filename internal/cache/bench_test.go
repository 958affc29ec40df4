package cache

import "testing"

// BenchmarkClaimHit is a hit in a full shard of 64 ids: the probe, the
// policy's bookkeeping and the lock. `make bench-allocs` holds it at 0.
func BenchmarkClaimHit(b *testing.B) {
	c := New(Options{MaxBytes: 64 * 100, Shards: 1})
	for id := int64(0); id < 64; id++ {
		c.PutRef(id, val(id, 100), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, f := c.ClaimRef(int64(i & 63)); f != nil {
			b.Fatal("miss in a full shard")
		}
	}
}

// BenchmarkPutEvict is an insert into a full shard, which evicts one
// entry to make room. `make bench-allocs` holds it at 0: the victim's slot
// takes the next insert and the table stays its size.
func BenchmarkPutEvict(b *testing.B) {
	c := New(Options{MaxBytes: 64 * 100, Shards: 1})
	v := val(0, 100)
	for id := int64(0); id <= 64; id++ { // the 65th insert is the first eviction
		c.PutRef(id, v, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutRef(int64(65+i), v, nil)
	}
}
