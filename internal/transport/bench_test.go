package transport

import (
	"fmt"
	"testing"
	"time"

	"ddstore/internal/graph"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/vtime"
)

// benchGraph builds a dense sample matching the wire-decode sweep's shape
// (16-dim node features, 3 edges per node, 4-dim edge features).
func benchGraph(rng *vtime.RNG, id int64, nodes int) *graph.Graph {
	const nodeDim, edgeDim = 16, 4
	edges := 3 * nodes
	g := &graph.Graph{
		ID:          id,
		NumNodes:    nodes,
		NodeFeatDim: nodeDim,
		NodeFeat:    make([]float32, nodes*nodeDim),
		EdgeSrc:     make([]int32, edges),
		EdgeDst:     make([]int32, edges),
		EdgeFeatDim: edgeDim,
		EdgeFeat:    make([]float32, edges*edgeDim),
		Y:           []float32{float32(id)},
	}
	for i := range g.NodeFeat {
		g.NodeFeat[i] = float32(rng.NormFloat64())
	}
	for i := range g.EdgeSrc {
		g.EdgeSrc[i] = int32(rng.Intn(nodes))
		g.EdgeDst[i] = int32(rng.Intn(nodes))
	}
	for i := range g.EdgeFeat {
		g.EdgeFeat[i] = float32(rng.NormFloat64())
	}
	return g
}

// BenchmarkOpGetBatch measures the full OpGetBatch round trip over loopback
// TCP: request framing, the server's reply assembly and writes, the
// client's payload read, CRC verification, and batch-part splitting. This
// is the per-batch wire cost the serving layer pays per owner per batch;
// allocations per op are the number the zero-allocation wire path drives
// down.
func BenchmarkOpGetBatch(b *testing.B) {
	rng := vtime.NewRNG(7)
	const n = 256
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = benchGraph(rng, int64(i), 32)
	}
	srv, err := Serve("127.0.0.1:0", NewMemChunk(0, graphs))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	for _, batch := range []int{16, 64} {
		ids := make([]int64, batch)
		for i := range ids {
			ids[i] = int64((i * 7) % n)
		}
		var bytesPerOp int64
		parts, err := cl.GetBatchRaw(ids)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range parts {
			bytesPerOp += int64(len(p))
		}
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.SetBytes(bytesPerOp)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cl.GetBatchRaw(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cold64", benchColdBatch)
}

// benchColdBatch asks for 64 seeded-random ids an op from a chunk of
// 1,400-byte samples packed into 64 MiB, the shape of a shuffled training
// batch against an owner's shard: the server's frame pass is the first to
// touch each sample, and it finds it in no CPU cache.
func benchColdBatch(b *testing.B) {
	const sampleBytes, slabBytes, batch = 1400, 64 << 20, 64
	rng := vtime.NewRNG(7)
	distinct := make([][]byte, 64)
	for i := range distinct {
		distinct[i] = benchGraph(rng, int64(i), 10).Encode()
		if len(distinct[i]) != sampleBytes {
			b.Fatalf("sample of %d bytes, want %d", len(distinct[i]), sampleBytes)
		}
	}
	n := slabBytes / sampleBytes
	slab := make([]byte, 0, n*sampleBytes)
	chunk := &MemChunk{Hi: int64(n), Encoded: make([][]byte, n)}
	for i := range chunk.Encoded {
		slab = append(slab, distinct[i%len(distinct)]...)
		chunk.Encoded[i] = slab[i*sampleBytes : len(slab) : len(slab)]
	}
	srv, err := Serve("127.0.0.1:0", chunk)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ids := make([]int64, batch)
	draw := func() {
		for i := range ids {
			ids[i] = int64(rng.Intn(n))
		}
	}
	// Warm both ends' scratch and the client's buffer pool.
	for i := 0; i < 32; i++ {
		draw()
		if _, err := cl.GetBatchRaw(ids); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(batch * sampleBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw()
		if _, err := cl.GetBatchRaw(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchChunk16 measures what the group adds to a healthy 16-id
// round trip: routing the chunk to its member, the request, and one
// delivery per sample, each with its own reference on the response buffer.
// Its allocation budget is stated per chunk — the pick list, the response
// buffer's handle and its part list — and does not grow with the ids.
func BenchmarkFetchChunk16(b *testing.B) {
	rng := vtime.NewRNG(7)
	graphs := make([]*graph.Graph, 256)
	for i := range graphs {
		graphs[i] = benchGraph(rng, int64(i), 32)
	}
	srv, err := Serve("127.0.0.1:0", NewMemChunk(0, graphs))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	g, err := NewGroup([]string{srv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ids := make([]int64, 16)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	deliver := func(_ int64, _ []byte, ref graph.Ref, _ time.Duration) error {
		ref.Release()
		return nil
	}
	fetch := func() {
		if err := g.fetchChunk(g.maps.Current(), ids, deliver, 0, tracectx.Context{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the buffer pools and both ends' per-connection scratch, so a
	// short run counts the steady state and not the first requests.
	for i := 0; i < 32; i++ {
		fetch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
