package transport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"ddstore/internal/obs/tracectx"
	"ddstore/internal/wire"
)

// reqBytes crafts one wire request header for the seed corpus.
func reqBytes(op byte, a, b int64) []byte {
	var h [reqHeaderSize]byte
	h[0] = op
	binary.LittleEndian.PutUint64(h[1:], uint64(a))
	binary.LittleEndian.PutUint64(h[9:], uint64(b))
	return h[:]
}

// FuzzRoundTrip throws arbitrary byte streams at both ends of the wire
// protocol: as a request stream into a live server handler, and as a
// response stream into a client. Neither side may panic, hang past its
// deadline, or accept a frame whose checksum does not match.
func FuzzRoundTrip(f *testing.F) {
	ctx := tracectx.New(true).AppendTo(nil)
	f.Add(reqBytes(opShardMap, 0, 0))
	f.Add(append(reqBytes(opGetBatch, 1, flagLookup), wire.AppendIDs(nil, []int64{3})...))
	// The retired ops — chunk range, range, single get, traced get, traced
	// batch — are answered like any unknown op.
	f.Add(reqBytes(3, 1, 6))
	f.Add(append(reqBytes(1, 0, 0), reqBytes(2, 7, 0)...))
	f.Add(append(reqBytes(7, 3, 0), ctx...))
	f.Add(append(append(reqBytes(8, 1, 0), ctx...), wire.AppendIDs(nil, []int64{4})...))
	f.Add(reqBytes(99, -1, 1<<40))
	f.Add(append(reqBytes(opGetBatch, 2, 0), wire.AppendIDs(nil, []int64{3, 5})...))
	f.Add(append(append(reqBytes(opGetBatch, 1, flagTraced), ctx[:7]...), reqBytes(opShardMap, 0, 0)...)) // short context
	f.Add(append(reqBytes(opGetBatch, 1, 1<<5), wire.AppendIDs(nil, []int64{3})...))                      // unknown flag
	f.Add(reqBytes(opGetBatch, maxBatchIDs+1, 0))
	// A valid OK response frame seeds the client-side path too.
	f.Add([]byte{statusOK, 16, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) { fuzzRoundTripBody(t, data) })
}

func fuzzRoundTripBody(t testing.TB, data []byte) {
	fuzzServerSide(t, data)
	fuzzClientSide(t, data)
}

func fuzzServerSide(t testing.TB, data []byte) {
	chunk := wireChunk(0, 8)
	{
		// Server side: data is a hostile request stream.
		srv := &Server{src: chunk, opts: ServerOptions{WriteTimeout: time.Second, ShardMap: newChunkMap("pipe", chunk)},
			conns: map[net.Conn]*connState{}, done: make(chan struct{})}
		serverEnd, clientEnd := net.Pipe()
		handleDone := make(chan struct{})
		go func() {
			defer close(handleDone)
			srv.handle(serverEnd, &connState{})
		}()
		go io.Copy(io.Discard, clientEnd) // drain responses
		clientEnd.SetWriteDeadline(time.Now().Add(time.Second))
		clientEnd.Write(data)
		clientEnd.Close()
		serverEnd.Close()
		select {
		case <-handleDone:
		case <-time.After(5 * time.Second):
			t.Fatal("server handler hung on fuzz input")
		}
	}
}

func fuzzClientSide(t testing.TB, data []byte) {
	{
		// Client side: data is a hostile response stream.
		cEnd, fakeSrv := net.Pipe()
		dialed := false
		go io.Copy(io.Discard, fakeSrv) // absorb the request
		go func() {
			fakeSrv.SetWriteDeadline(time.Now().Add(time.Second))
			fakeSrv.Write(data)
			fakeSrv.Close()
		}()
		cl, err := DialOptions("fuzz", ClientOptions{
			Policy: RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond,
				ReadTimeout: 200 * time.Millisecond, WriteTimeout: 200 * time.Millisecond,
				Seed: 1},
			Dialer: func(string) (net.Conn, error) {
				if dialed {
					return nil, io.ErrClosedPipe
				}
				dialed = true
				return cEnd, nil
			},
		})
		if err != nil {
			return
		}
		GetGraph(cl, 2) // must not panic; errors are expected
		cl.Close()
	}
}

// FuzzServerRequest aims one arbitrary request — any op byte, any header
// fields, any body — at a live server handler over an in-memory
// connection. Whatever arrives, the server must not panic, must not size
// its request-body allocation past the largest legitimate body (a full
// traced batch), and must either answer with a well-formed frame or close
// the connection: it answers whenever the body it is owed (per the op
// table) was delivered or the request was refusable on the header alone,
// and a short body just leaves it waiting until the client hangs up.
func FuzzServerRequest(f *testing.F) {
	ctx := tracectx.New(true).AppendTo(nil)
	f.Add(byte(opGetBatch), int64(1), int64(flagLookup), wire.AppendIDs(nil, []int64{3}))
	f.Add(byte(opGetBatch), int64(2), int64(0), wire.AppendIDs(nil, []int64{3, 5}))
	f.Add(byte(opGetBatch), int64(2), int64(0), []byte{1, 2, 3}) // short body
	f.Add(byte(opGetBatch), int64(maxBatchIDs+1), int64(0), []byte(nil))
	f.Add(byte(opHello), int64(5), int64(1), []byte("alpha"))
	f.Add(byte(opShardMap), int64(0), int64(0), []byte(nil))
	f.Add(byte(opGetBatch), int64(1), int64(flagTraced|flagLookup), wire.AppendIDs(ctx, []int64{4}))
	f.Add(byte(opGetBatch), int64(1), int64(flagTraced), ctx[:7])                   // short context
	f.Add(byte(opGetBatch), int64(1), int64(1<<5), wire.AppendIDs(nil, []int64{4})) // unknown flag
	f.Add(byte(opGetBatch), int64(1), int64(-1), wire.AppendIDs(ctx, []int64{4}))   // every flag bit
	// The retired ops: chunk range, range, single get, traced get, traced
	// batch.
	f.Add(byte(1), int64(0), int64(0), []byte(nil))
	f.Add(byte(3), int64(1), int64(6), []byte(nil))
	f.Add(byte(2), int64(3), int64(0), []byte(nil))
	f.Add(byte(7), int64(3), int64(0), ctx)
	f.Add(byte(8), int64(1), int64(0), wire.AppendIDs(ctx, []int64{4}))
	f.Add(byte(99), int64(-1), int64(1<<40), []byte("junk"))

	chunk := wireChunk(0, 8)
	f.Fuzz(func(t *testing.T, op byte, a, b int64, body []byte) {
		owed := int64(0) // body bytes the server will wait for before answering
		if n, err := opTable[op].bodyLen(a, b); err == nil {
			if n > maxBatchIDs*8+tracectx.Size {
				t.Fatalf("op %d count %d sizes a %d-byte request body", op, a, n)
			}
			owed = n
		}
		srv := &Server{src: chunk, opts: ServerOptions{WriteTimeout: time.Second, ShardMap: fixedOwnership{owns: true}},
			conns: map[net.Conn]*connState{}, done: make(chan struct{})}
		serverEnd, clientEnd := net.Pipe()
		handleDone := make(chan struct{})
		go func() {
			defer close(handleDone)
			defer serverEnd.Close()
			srv.handle(serverEnd, &connState{})
		}()
		go func() {
			// The server may answer (and, on a bad count, hang up) before
			// it has read everything sent, so the write races the read.
			clientEnd.SetWriteDeadline(time.Now().Add(time.Second))
			clientEnd.Write(append(reqBytes(op, a, b), body...))
		}()
		if int64(len(body)) >= owed {
			clientEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
			var head [respHeaderSize]byte
			if _, err := io.ReadFull(clientEnd, head[:]); err != nil {
				t.Fatalf("no answer to a complete request: %v", err)
			}
			n := binary.LittleEndian.Uint32(head[1:])
			if head[0] > statusStaleGen || n > maxPayload {
				t.Fatalf("malformed response head %v", head)
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(clientEnd, payload); err != nil {
				t.Fatalf("response payload: %v", err)
			}
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[5:]) {
				t.Fatal("response CRC mismatch")
			}
		}
		// Bytes past the owed body read as further requests; hanging up
		// fails whatever the handler is writing or waiting for.
		clientEnd.Close()
		select {
		case <-handleDone:
		case <-time.After(5 * time.Second):
			t.Fatal("server handler neither answered nor closed")
		}
	})
}

// FuzzParseTimingTrailer throws arbitrary bytes at the trailer parser. It
// must never panic or report a data length outside the payload, and every
// trailer it accepts must survive a re-render: what the client believes
// about a request's timing is exactly what some server could have sent.
func FuzzParseTimingTrailer(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(appendTimingTrailer(nil, ServerTiming{}))
	f.Add(appendTimingTrailer([]byte("payload"), ServerTiming{
		QueueWait: time.Millisecond, Service: 3 * time.Millisecond, Source: time.Millisecond,
		Bytes: 7, Generation: 9, Tenant: "alpha",
	}))
	f.Add(bytes.Repeat([]byte{0xff}, trailerMinSize+3))
	f.Add(append(make([]byte, trailerFixedSize), 200, trailerVersion)) // tenant longer than the payload

	f.Fuzz(func(t *testing.T, p []byte) {
		n, timing, err := parseTimingTrailer(p)
		if err != nil {
			return
		}
		if n < 0 || n > len(p)-trailerMinSize || timing.Bytes != int64(n) {
			t.Fatalf("accepted trailer: data length %d of %d, bytes field %d", n, len(p), timing.Bytes)
		}
		if len(timing.Tenant) > maxTenantName {
			return // the renderer truncates over-long tenants; nothing to round-trip
		}
		again := appendTimingTrailer(append([]byte(nil), p[:n]...), timing)
		n2, timing2, err := parseTimingTrailer(again)
		if err != nil || n2 != n || timing2 != timing {
			t.Fatalf("re-render: (%d, %+v, %v), want (%d, %+v)", n2, timing2, err, n, timing)
		}
	})
}
