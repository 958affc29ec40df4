package transport_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/transport"
)

func TestTracedBatchCarriesServerTiming(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 32})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Tracing: true, Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tc := tracectx.New(true)
	ids := []int64{3, 9, 27}
	buf, parts, timing, err := cl.GetBatchBufsTraced(ids, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	if len(parts) != len(ids) {
		t.Fatalf("got %d parts for %d ids", len(parts), len(ids))
	}
	if timing == nil {
		t.Fatal("traced batch returned no server timing")
	}
	if timing.Service <= 0 {
		t.Errorf("server service time %v, want > 0", timing.Service)
	}
	if timing.Source <= 0 || timing.Source > timing.Service {
		t.Errorf("chunk-source time %v outside (0, service=%v]", timing.Source, timing.Service)
	}
	var want int64
	for _, p := range parts {
		want += int64(len(p)) + 4 // each part plus its length prefix
	}
	if timing.Bytes != want {
		t.Errorf("trailer bytes %d, want %d (trailer must not count itself)", timing.Bytes, want)
	}
	if timing.Tenant != "alpha" {
		t.Errorf("trailer tenant %q, want alpha", timing.Tenant)
	}

	// The trailer was stripped: the parts decode to the right samples.
	for i, id := range ids {
		wantG, _ := ds.Sample(id)
		if string(parts[i]) != string(wantG.Encode()) {
			t.Fatalf("sample %d bytes corrupted by trailer stripping", id)
		}
	}

	// Single-sample traced path.
	raw, timing2, err := cl.GetRawTraced(5, tc.Child())
	if err != nil {
		t.Fatal(err)
	}
	// A single get is a batch of one: the sample plus its length prefix.
	if timing2 == nil || timing2.Bytes != int64(len(raw))+4 {
		t.Fatalf("GetRawTraced timing = %+v for %d bytes", timing2, len(raw))
	}
}

func TestUnsampledOrInvalidContextRunsUntraced(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for name, tc := range map[string]tracectx.Context{
		"unsampled": tracectx.New(false),
		"invalid":   {},
	} {
		raw, timing, err := cl.GetRawTraced(2, tc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if timing != nil {
			t.Errorf("%s context produced server timing %+v", name, timing)
		}
		if len(raw) == 0 {
			t.Errorf("%s: empty payload", name)
		}
	}
}

// TestTracingOffClientAgainstNewServer pins a client that declares a
// tenant and never asks for tracing (the default): its hello is acked and
// its batch served.
func TestTracingOffClientAgainstNewServer(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Tenant set, tracing not: the hello ack is released unread.
	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Tenant: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gs, err := transport.GetBatchGraphs(cl, []int64{1, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 || gs[2].ID != 6 {
		t.Fatalf("batch = %v", gs)
	}
}

// countingConn counts the writes a client makes: each request frame is one.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTracingNeedsNoHello pins that tracing is not negotiated: a tracing
// client that declares no tenant sends its traced request as the
// connection's one frame, and the server names the tenant every undeclared
// connection is charged to.
func TestTracingNeedsNoHello(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var writes atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		return countingConn{conn, &writes}, err
	}
	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Tracing: true, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	buf, parts, timing, err := cl.GetBatchBufsTraced([]int64{1, 6}, tracectx.New(true))
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	if len(parts) != 2 {
		t.Fatalf("got %d parts for 2 ids", len(parts))
	}
	if timing == nil || timing.Tenant != transport.DefaultTenant {
		t.Fatalf("server timing %+v, want tenant %q", timing, transport.DefaultTenant)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("client wrote %d frames, want the one request", n)
	}
}

// TestCorruptContextOverRawWire drives a hostile traced request straight
// onto the socket: a garbage trace context must not fail the request or
// desync the stream — the server serves it untraced.
func TestCorruptContextOverRawWire(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Header field b = 3: traced and lookup-flagged.
	send := func(b int64, body []byte) (status byte, payload []byte) {
		t.Helper()
		req := make([]byte, 17+len(body))
		req[0] = 4 // getbatch
		binary.LittleEndian.PutUint64(req[1:], 1)
		binary.LittleEndian.PutUint64(req[9:], uint64(b))
		copy(req[17:], body)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		head := make([]byte, 9)
		if _, err := io.ReadFull(conn, head); err != nil {
			t.Fatal(err)
		}
		payload = make([]byte, binary.LittleEndian.Uint32(head[1:]))
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		return head[0], payload
	}

	// A traced batch of one, with 24 bytes of garbage where the context
	// goes; each reply is the sample behind its 4-byte length prefix.
	garbage := make([]byte, 24)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	status, payload := send(3, binary.LittleEndian.AppendUint64(garbage, 3))
	want, _ := ds.Sample(3)
	if status != 0 || len(payload) < 4 || string(payload[4:]) != string(want.Encode()) {
		t.Fatalf("garbage context: status %d, %d payload bytes", status, len(payload))
	}
	// The stream is still aligned: a normal request follows cleanly.
	status, payload = send(2, binary.LittleEndian.AppendUint64(nil, 5))
	want, _ = ds.Sample(5)
	if status != 0 || len(payload) < 4 || string(payload[4:]) != string(want.Encode()) {
		t.Fatalf("follow-up request after garbage context: status %d", status)
	}
}

func TestServerFlightRecorderCapturesSlowAndError(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	rec := flightrec.New(16)
	srv, err := transport.ServeWith("127.0.0.1:0", chunkFor(t, ds, 0, 8), transport.ServerOptions{
		FlightRecorder: rec,
		SlowThreshold:  time.Nanosecond, // everything is slow: deterministic capture
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := transport.DialOptions(srv.Addr(), transport.ClientOptions{Tracing: true, Tenant: "bravo"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tc := tracectx.New(true)
	if _, _, err := cl.GetRawTraced(2, tc); err != nil {
		t.Fatal(err)
	}
	var rerr *transport.RemoteError
	if _, err := transport.GetGraph(cl, 99); !errors.As(err, &rerr) {
		t.Fatalf("out-of-range get: %v", err)
	}

	// The server records a request after writing its response, so the
	// client can be back here before the second record lands.
	waitUntil(t, "both flight records", func() bool { return len(rec.Records()) >= 2 })
	var slow, errored *flightrec.Record
	for _, r := range rec.Records() {
		r := r
		switch r.Kind {
		case flightrec.KindSlow:
			slow = &r
		case flightrec.KindError:
			errored = &r
		}
	}
	if slow == nil {
		t.Fatal("no slow record captured")
	}
	if slow.Op != "getbatch" || slow.Tenant != "bravo" || slow.TraceID != tracectx.IDString(tc.TraceID) {
		t.Fatalf("slow record = %+v", *slow)
	}
	if slow.DurMs <= 0 || slow.Bytes <= 0 || slow.Samples != 1 {
		t.Fatalf("slow record breakdown = %+v", *slow)
	}
	if errored == nil || errored.Err == "" {
		t.Fatalf("error record = %+v", errored)
	}
}
