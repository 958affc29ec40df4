package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddstore/internal/obs"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/trace"
)

// What buffered reads and per-connection scratch must not change: a broken
// stream's bytes never reach the next response, pipelined requests are
// answered one by one in order, a request leaves nothing behind for the
// next one on its connection, and a reply the frame cannot carry is an
// error on an aligned stream.

// frameBytes renders one response frame the way a server writes it.
func frameBytes(status byte, payload []byte) []byte {
	f := make([]byte, respHeaderSize, respHeaderSize+len(payload))
	f[0] = status
	binary.LittleEndian.PutUint32(f[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[5:], crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// TestBrokenStreamNeverLeaksIntoRetry breaks a stub server's first
// connection in the three places a buffered reader could carry bytes across
// a reconnect; the second connection answers correctly. The client must
// return the right sample after exactly one reconnect. Without the Reset on
// re-dial, case (c) parses the stray frame — a well-formed answer holding
// the wrong sample — as the retried request's response.
func TestBrokenStreamNeverLeaksIntoRetry(t *testing.T) {
	chunk := wireChunk(0, 8)
	const id = 3
	want := chunk.Encoded[id]
	// A single get is a batch of one: its reply is the sample behind a
	// length prefix.
	one, other := encodeBatchPayload([][]byte{want}), encodeBatchPayload([][]byte{chunk.Encoded[5]})
	good := frameBytes(statusOK, one)
	corrupt := frameBytes(statusOK, one)
	corrupt[len(corrupt)-1] ^= 0xFF

	cases := map[string][]byte{
		"five bytes into the head":               good[:5],
		"mid-payload, after bytes already read":  good[:respHeaderSize+len(one)/2],
		"corrupt frame followed by stray bytes":  append(corrupt, frameBytes(statusOK, other)...),
		"corrupt frame followed by half a frame": append(corrupt, good[:respHeaderSize+3]...),
	}
	for name, firstReply := range cases {
		firstReply := firstReply
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var accepted atomic.Int32
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					reply := good
					if accepted.Add(1) == 1 {
						reply = firstReply
					}
					go func() {
						defer conn.Close()
						var header [reqHeaderSize]byte
						if _, err := io.ReadFull(conn, header[:]); err != nil {
							return
						}
						conn.Write(reply) // one segment: the client's first read buffers all of it
					}()
				}
			}()

			prof := trace.New()
			cl, err := DialOptions(ln.Addr().String(), ClientOptions{Policy: fastPolicy(), Counters: prof})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			got, err := cl.GetRaw(id)
			if err != nil {
				t.Fatalf("get over a stream broken once: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("got %d bytes that are not sample %d: the broken stream leaked into the retry", len(got), id)
			}
			if n := prof.Counter(CounterReconnects); n != 1 {
				t.Fatalf("%d reconnects, want exactly 1 (%v)", n, prof.Counters())
			}
			if n := accepted.Load(); n != 2 {
				t.Fatalf("stub server accepted %d connections, want 2", n)
			}
		})
	}
}

// TestPipelinedRequestsAnsweredInOrder writes a hello, three gets and a
// batch in one segment, so the server's buffered reader holds all five
// requests after its first read; each must be answered, in order, with the
// bytes it would get alone.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	chunk := wireChunk(0, 8)
	srv, err := Serve("127.0.0.1:0", chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	const tenant = "alpha"
	batchIDs := []int64{7, 0, 7}
	stream := append(appendRequest(nil, opHello, int64(len(tenant)), 0, tracectx.Context{}, nil), tenant...)
	for _, id := range []int64{2, 6, 2} {
		stream = appendRequest(stream, opGetBatch, 1, flagLookup, tracectx.Context{}, []int64{id})
	}
	stream = appendRequest(stream, opGetBatch, int64(len(batchIDs)), 0, tracectx.Context{}, batchIDs)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	one := func(id int64) []byte { return encodeBatchPayload([][]byte{chunk.Encoded[id]}) }
	wants := [][]byte{nil, one(2), one(6), one(2),
		encodeBatchPayload([][]byte{chunk.Encoded[7], chunk.Encoded[0], chunk.Encoded[7]})}
	for i, want := range wants {
		status, payload := exchangeRaw(t, conn, nil)
		if status != statusOK || !bytes.Equal(payload, want) {
			t.Fatalf("response %d: status %d, %d bytes; want status 0 and the %d bytes of request %d", i, status, len(payload), len(want), i)
		}
	}
}

// pollFor waits for cond, which the server's goroutines make true.
func pollFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// soleConnState returns the state of the server's one connection, idle:
// the handler clears its scratch after the response write and before it
// clears busy, which it set before the response left.
func soleConnState(t *testing.T, srv *Server) *connState {
	t.Helper()
	var st *connState
	pollFor(t, "the server's connection to go idle", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, s := range srv.conns {
			st = s
		}
		return len(srv.conns) == 1 && !st.busy.Load()
	})
	return st
}

// scratchRefs counts the slice references a connection's scratch lists hold,
// over their whole capacity.
func scratchRefs(st *connState) int {
	n := 0
	for _, list := range [][][]byte{st.parts[:cap(st.parts)], st.iov[:cap(st.iov)]} {
		for _, p := range list {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// unreadableAt is a chunk with one sample that cannot be read, so a request
// can fail after the parts in front of that sample were gathered.
type unreadableAt struct {
	*MemChunk
	id int64
}

func (c unreadableAt) LocalSampleBytes(id int64) ([]byte, error) {
	if id == c.id {
		return nil, errors.New("sample unreadable")
	}
	return c.MemChunk.LocalSampleBytes(id)
}

// TestScratchDoesNotBleedAcrossRequests sends one connection a run of
// requests that shrink, grow and fail — the largest batch the op table
// allows, a single get, a two-id batch, traced requests, an error before
// any part was gathered and one after — and holds every answer equal to
// what a fresh connection gives for the same request. Between requests, and
// after the last one, the connection's scratch holds no reference to a
// slice of the source.
func TestScratchDoesNotBleedAcrossRequests(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", unreadableAt{MemChunk: wireChunk(0, 9), id: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn
	}
	shared := dial()
	defer shared.Close()
	st := soleConnState(t, srv)

	big := make([]int64, maxBatchIDs)
	for i := range big {
		big[i] = int64((i * 5) % 8)
	}
	tc := tracectx.New(true)
	requests := []struct {
		name   string
		req    []byte
		traced bool
	}{
		{name: "4096-id batch", req: appendRequest(nil, opGetBatch, maxBatchIDs, 0, tracectx.Context{}, big)},
		{name: "single get", req: appendRequest(nil, opGetBatch, 1, flagLookup, tracectx.Context{}, []int64{4})},
		{name: "2-id batch", req: appendRequest(nil, opGetBatch, 2, 0, tracectx.Context{}, []int64{1, 6})},
		{name: "traced get", req: appendRequest(nil, opGetBatch, 1, flagTraced|flagLookup, tc, []int64{5}), traced: true},
		{name: "traced 2-id batch", req: appendRequest(nil, opGetBatch, 2, flagTraced, tc, []int64{6, 1}), traced: true},
		{name: "error reply", req: appendRequest(nil, opGetBatch, 2, 0, tracectx.Context{}, []int64{1, 99})},
		{name: "error after two samples", req: appendRequest(nil, opGetBatch, 3, 0, tracectx.Context{}, []int64{1, 6, 8})},
		{name: "single get after the error", req: appendRequest(nil, opGetBatch, 1, flagLookup, tracectx.Context{}, []int64{0})},
	}
	for _, rq := range requests {
		gotStatus, got := exchangeRaw(t, shared, rq.req)
		fresh := dial()
		wantStatus, want := exchangeRaw(t, fresh, rq.req)
		if rq.traced {
			// The trailers hold each run's own durations: compare the data in
			// front of them, and what of the trailer is not a clock reading.
			gn, gt, gerr := parseTimingTrailer(got)
			wn, wt, werr := parseTimingTrailer(want)
			if gerr != nil || werr != nil {
				t.Fatalf("%s: trailers do not parse: %v / %v", rq.name, gerr, werr)
			}
			if gt.Bytes != wt.Bytes || gt.Tenant != wt.Tenant || gt.Generation != wt.Generation {
				t.Fatalf("%s: trailer %+v, a fresh connection's says %+v", rq.name, gt, wt)
			}
			got, want = got[:gn], want[:wn]
		}
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("%s: status %d and %d bytes on the shared connection, status %d and %d bytes on a fresh one",
				rq.name, gotStatus, len(got), wantStatus, len(want))
		}
		fresh.Close()
		if soleConnState(t, srv) != st {
			t.Fatalf("%s: the shared connection did not survive", rq.name)
		}
		if n := scratchRefs(st); n != 0 {
			t.Fatalf("%s: the idle connection's scratch still holds %d slice references", rq.name, n)
		}
	}
	if c := cap(st.parts); c < 2*maxBatchIDs || c > maxScratchParts {
		t.Fatalf("part list capacity %d after a %d-id batch: want it kept, and bounded by %d", c, maxBatchIDs, maxScratchParts)
	}
}

// aliasChunk is a chunk whose every sample is the same slice: a reply can
// be made as large as the frame limit without the memory to back it.
type aliasChunk struct {
	n      int64
	sample []byte
}

func (c aliasChunk) LocalRange() (int64, int64) { return 0, c.n }

func (c aliasChunk) LocalSampleBytes(int64) ([]byte, error) { return c.sample, nil }

// maxScratchParts bounds the part list a connection keeps between requests.
// A counted body asks for at most a length prefix and a sample per id of the
// largest batch, and a timing trailer; append at most doubles a list on its
// way there.
const maxScratchParts = 2 * (2*maxBatchIDs + 1)

// TestOversizedReplyIsAnError asks for a reply whose parts sum past
// maxPayload — a batch of 1 025 ids that all alias one 1 MiB slice. The
// frame's length field and the client's response bound cannot carry it, so
// it must come back as a remote error on a stream that is still aligned: no
// retry, no reconnect, and the next get on the same connection succeeds.
func TestOversizedReplyIsAnError(t *testing.T) {
	const n = maxPayload>>20 + 1
	src := aliasChunk{n: n, sample: make([]byte, 1<<20)}
	srv, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prof := trace.New()
	cl, err := DialOptions(srv.Addr(), ClientOptions{Policy: fastPolicy(), Counters: prof})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	_, _, err = cl.GetBatchBufs(ids)
	var rerr *RemoteError
	if !errors.As(err, &rerr) || !strings.Contains(rerr.Msg, "exceeds") {
		t.Fatalf("batch past the frame limit: %v, want a remote error naming the limit", err)
	}
	raw, err := cl.GetRaw(7)
	if err != nil || len(raw) != len(src.sample) {
		t.Fatalf("get after the oversized replies: %d bytes, %v", len(raw), err)
	}
	if r, rc := prof.Counter(CounterRetries), prof.Counter(CounterReconnects); r != 0 || rc != 0 {
		t.Fatalf("%d retries, %d reconnects: an oversized reply must not cost the connection", r, rc)
	}
	// The part list the oversized batch grew stays within what a counted
	// body allows.
	if c := cap(soleConnState(t, srv).parts); c > maxScratchParts {
		t.Fatalf("connection kept a %d-entry part list", c)
	}
}

// TestUnwrittenReplyIsAnError asks for a reply far larger than the two
// sockets can buffer and never reads it, so the server's write runs past
// WriteTimeout. The request is a failure: metered as an error with no bytes
// served, and flight-recorded with the write's error.
func TestUnwrittenReplyIsAnError(t *testing.T) {
	reg := obs.NewRegistry()
	rec := flightrec.New(4)
	const n = 1024
	srv, err := ServeWith("127.0.0.1:0", aliasChunk{n: n, sample: make([]byte, 64<<10)}, ServerOptions{
		Metrics: reg, FlightRecorder: rec, WriteTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	if _, err := conn.Write(appendRequest(nil, opGetBatch, n, 0, tracectx.Context{}, ids)); err != nil {
		t.Fatal(err)
	}
	pollFor(t, "the stalled reply's flight record", func() bool { return len(rec.Records()) == 1 })
	if r := rec.Records()[0]; r.Kind != flightrec.KindError || !strings.Contains(r.Err, "timeout") || r.Bytes != 0 || r.Samples != n {
		t.Fatalf("flight record %+v, want an error record of the write's timeout, no bytes and %d samples", r, n)
	}
	reqs := reg.Counter("ddstore_serve_requests_total", "op", "getbatch").Value()
	errs, served := reg.Counter("ddstore_serve_errors_total").Value(), reg.Counter("ddstore_serve_bytes_total").Value()
	if reqs != 1 || errs != 1 || served != 0 {
		t.Fatalf("%d requests, %d errors, %d bytes served; want 1, 1 and 0", reqs, errs, served)
	}
}

// TestEagerDialRetries pins the first dial to the retry policy every later
// reconnect runs under: a dialer that fails twice still yields a client,
// with the two retries counted, and with MaxAttempts 1 the first failure is
// the answer.
func TestEagerDialRetries(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", wireChunk(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errRefused := errors.New("dial refused by the test")
	flaky := func(calls *int) DialFunc {
		return func(addr string) (net.Conn, error) {
			if *calls++; *calls <= 2 {
				return nil, errRefused
			}
			return net.Dial("tcp", addr)
		}
	}

	var calls int
	prof := trace.New()
	policy := fastPolicy()
	policy.MaxAttempts = 4
	cl, err := DialOptions(srv.Addr(), ClientOptions{Policy: policy, Counters: prof, Dialer: flaky(&calls)})
	if err != nil {
		t.Fatalf("dial through two failures: %v", err)
	}
	defer cl.Close()
	if calls != 3 || prof.Counter(CounterRetries) != 2 {
		t.Fatalf("%d dials, %d retries counted; want 3 and 2", calls, prof.Counter(CounterRetries))
	}
	if _, err := cl.GetRaw(1); err != nil {
		t.Fatalf("get on the retried connection: %v", err)
	}

	calls = 0
	policy.MaxAttempts = 1
	if _, err := DialOptions(srv.Addr(), ClientOptions{Policy: policy, Dialer: flaky(&calls)}); !errors.Is(err, errRefused) {
		t.Fatalf("dial with MaxAttempts 1: %v, want the dialer's error", err)
	}
	if calls != 1 {
		t.Fatalf("MaxAttempts 1 dialed %d times", calls)
	}
}
