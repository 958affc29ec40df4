package transport

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"ddstore/internal/graph"
	"ddstore/internal/shardmap"
	"ddstore/internal/wire"
)

// wireChunk builds a tiny in-memory chunk of hand-made graphs covering
// ids [lo, hi), without importing dataset packages (which would cycle).
func wireChunk(lo, hi int64) *MemChunk {
	gs := make([]*graph.Graph, 0, hi-lo)
	for id := lo; id < hi; id++ {
		gs = append(gs, &graph.Graph{
			ID: id, NumNodes: 2, NodeFeatDim: 1, NodeFeat: []float32{1, 2},
			EdgeSrc: []int32{0}, EdgeDst: []int32{1}, EdgeFeatDim: 1,
			EdgeFeat: []float32{3}, Y: []float32{float32(id)},
		})
	}
	return NewMemChunk(lo, gs)
}

// rawRequest writes a hand-crafted header and body and reads back one
// response.
func rawRequest(t *testing.T, conn net.Conn, op byte, a, b int64, body ...byte) (status byte, payload []byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(append(reqBytes(op, a, b), body...)); err != nil {
		t.Fatalf("write request: %v", err)
	}
	var head [respHeaderSize]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		t.Fatalf("read response head: %v", err)
	}
	n := binary.LittleEndian.Uint32(head[1:])
	payload = make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("read response payload: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(head[5:]); got != want {
		t.Fatalf("response CRC %#x, header says %#x", got, want)
	}
	return head[0], payload
}

// TestRejectsMalformedHeaders drives the server with hostile raw headers:
// each must be rejected with the connection and server surviving. A retired
// op or an unknown flag bit is refused on the header alone; a bad id in a
// batch of one is refused after admission, like any batch id.
func TestRejectsMalformedHeaders(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	one := func(id int64) []byte { return wire.AppendIDs(nil, []int64{id}) }
	cases := []struct {
		name    string
		op      byte
		a, b    int64
		body    []byte
		wantErr string
	}{
		{"unknown op", 42, 0, 0, nil, "unknown op"},
		{"retired meta op", 1, 0, 0, nil, "unknown op"},
		{"retired range op", 3, 12, 14, nil, "unknown op"},
		{"retired get op", 2, 12, 0, nil, "unknown op"},
		{"retired traced get op", 7, 12, 0, nil, "unknown op"},
		{"retired traced batch op", 8, 1, 0, nil, "unknown op"},
		{"unknown flag bit", opGetBatch, 1, flagLookup | 1<<2, one(12), "unknown request flags 0x4"},
		{"negative id", opGetBatch, 1, flagLookup, one(-3), "outside chunk"},
		{"id below chunk", opGetBatch, 1, flagLookup, one(5), "outside chunk"},
		{"id above chunk", opGetBatch, 1, flagLookup, one(20), "outside chunk"},
	}
	for _, tc := range cases {
		status, payload := rawRequest(t, conn, tc.op, tc.a, tc.b, tc.body...)
		if status != statusError {
			t.Fatalf("%s: status = %d, want error", tc.name, status)
		}
		if !strings.Contains(string(payload), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, payload, tc.wantErr)
		}
	}

	// The same connection still serves valid requests afterwards.
	status, payload := rawRequest(t, conn, opShardMap, 0, 0)
	m, err := shardmap.Decode(payload)
	if status != statusOK || err != nil {
		t.Fatalf("shard map after rejections: status %d, %v", status, err)
	}
	if lo, hi := m.Range(); lo != 10 || hi != 20 {
		t.Fatalf("shard map after rejections spans [%d,%d), want the chunk [10,20)", lo, hi)
	}
	status, payload = rawRequest(t, conn, opGetBatch, 1, flagLookup, one(12)...)
	if status != statusOK || int(binary.LittleEndian.Uint32(payload)) != len(payload)-4 {
		t.Fatalf("valid batch of one after rejections: status %d, %d bytes", status, len(payload))
	}
}

// TestResponsesCarryCRC pins the wire format: every response head carries
// the payload's IEEE CRC32 (verified inside rawRequest), for both OK and
// error responses.
func TestResponsesCarryCRC(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if status, _ := rawRequest(t, conn, opGetBatch, 1, 0, wire.AppendIDs(nil, []int64{2})...); status != statusOK {
		t.Fatalf("get: status %d", status)
	}
	if status, _ := rawRequest(t, conn, opGetBatch, 1, 0, wire.AppendIDs(nil, []int64{99})...); status != statusError {
		t.Fatalf("bad get: status %d", status)
	}
}

// TestRetryPolicyBackoff pins the backoff schedule: capped exponential
// growth, deterministic under a fixed seed.
func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		Multiplier: 2, Jitter: -1, Seed: 7}.withDefaults()
	// Jitter < 0 is kept as-is by withDefaults and disables jitter in delay.
	rng := rand.New(rand.NewSource(7))
	for i, want := range []time.Duration{10, 20, 40, 40, 40} {
		if got := p.delay(i+1, rng); got != want*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	d := RetryPolicy{}.withDefaults()
	if d.MaxAttempts != 4 || d.BaseDelay != 5*time.Millisecond || d.ReadTimeout != 5*time.Second {
		t.Fatalf("defaults = %+v", d)
	}
}
