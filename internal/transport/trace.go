package transport

import (
	"encoding/binary"
	"fmt"
	"time"

	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
)

// Timing trailer layout. Traced requests with a valid, sampled context get
// a trailer appended to their success payload — after the op's normal
// response bytes, inside the length/CRC frame — carrying the server-side
// timing breakdown. It is parsed from the END of the payload so the data
// framing in front of it stays untouched:
//
//	... op payload ...
//	queue-wait ns   u64   time spent in the admission queue
//	service ns      u64   total handler time (header parse to trailer build)
//	source ns       u64   time reading the chunk source
//	generation      u64   shard map generation that served the request
//	payload bytes   u64   op payload length (trailer excluded) — cross-check
//	reserved        u64   zero
//	tenant          tenantLen bytes
//	tenantLen       u8
//	version         u8    trailerVersion (the very last payload byte)
//
// All integers little-endian. The trailer carries durations, not
// timestamps: client and server clocks are not comparable, so the client
// reconstructs the server window inside its own measured request span.
const (
	trailerVersion   = 1
	trailerFixedSize = 48
	trailerMinSize   = trailerFixedSize + 2
)

// ServerTiming is the decoded timing trailer of one traced request.
type ServerTiming struct {
	// QueueWait is the time the request spent queued in admission control.
	QueueWait time.Duration
	// Service is the server's total handler time for the request.
	Service time.Duration
	// Source is the time spent reading sample bytes from the chunk source.
	Source time.Duration
	// Bytes is the op payload size the server served (trailer excluded).
	Bytes int64
	// Generation is the shard map generation the request was served under.
	Generation uint64
	// Tenant is the tenant the connection declared at hello, DefaultTenant
	// when it declared none: the queue a front end charged the request to.
	Tenant string
}

// Spans lays the trailer out as "server" category spans nested inside the
// client's request: server-request under tc's span, with server-queue-wait
// and server-chunk-source under it when they took time. The trailer carries
// durations, not timestamps — server and client clocks need not agree — so
// the server window is anchored to reqEnd, the client's view of the request
// end: it ended Service ago, and the segments lay out from there in order.
// base carries what only the caller knows (Owner, Samples, ShardLo).
func (t *ServerTiming) Spans(tc tracectx.Context, base obs.Span, reqEnd time.Duration) []obs.Span {
	serverStart := reqEnd - t.Service
	sub := tc.Child()
	base.Cat, base.Tenant, base.Gen = "server", t.Tenant, t.Generation
	base.TraceID, base.SpanID, base.ParentID = sub.TraceID, sub.SpanID, tc.SpanID
	req := base
	req.Name, req.Start, req.Dur, req.Bytes = "server-request", serverStart, t.Service, t.Bytes
	spans := make([]obs.Span, 1, 3)
	spans[0] = req
	if t.QueueWait > 0 {
		qw := base
		qw.SpanID, qw.ParentID = tc.Child().SpanID, sub.SpanID
		qw.Name, qw.Start, qw.Dur = "server-queue-wait", serverStart, t.QueueWait
		spans = append(spans, qw)
	}
	if t.Source > 0 {
		src := base
		src.SpanID, src.ParentID = tc.Child().SpanID, sub.SpanID
		src.Name, src.Start, src.Dur = "server-chunk-source", serverStart+t.QueueWait, t.Source
		spans = append(spans, src)
	}
	return spans
}

// appendTimingTrailer renders a trailer for a traced response.
func appendTimingTrailer(dst []byte, t ServerTiming) []byte {
	var fixed [trailerFixedSize]byte
	binary.LittleEndian.PutUint64(fixed[0:], uint64(t.QueueWait))
	binary.LittleEndian.PutUint64(fixed[8:], uint64(t.Service))
	binary.LittleEndian.PutUint64(fixed[16:], uint64(t.Source))
	binary.LittleEndian.PutUint64(fixed[24:], t.Generation)
	binary.LittleEndian.PutUint64(fixed[32:], uint64(t.Bytes))
	dst = append(dst, fixed[:]...)
	tenant := t.Tenant
	if len(tenant) > maxTenantName {
		tenant = tenant[:maxTenantName]
	}
	dst = append(dst, tenant...)
	dst = append(dst, byte(len(tenant)), trailerVersion)
	return dst
}

// parseTimingTrailer splits a traced response payload into its data length
// and the decoded trailer. The server only appends trailers it built
// itself and the CRC already vouched for the bytes, so a malformed trailer
// is a protocol bug, not line noise — it fails the request.
func parseTimingTrailer(p []byte) (dataLen int, t ServerTiming, err error) {
	if len(p) < trailerMinSize {
		return 0, t, fmt.Errorf("transport: traced response too short for timing trailer (%d bytes)", len(p))
	}
	if v := p[len(p)-1]; v != trailerVersion {
		return 0, t, fmt.Errorf("transport: unknown timing trailer version %d", v)
	}
	tenantLen := int(p[len(p)-2])
	size := trailerMinSize + tenantLen
	if len(p) < size {
		return 0, t, fmt.Errorf("transport: timing trailer truncated (%d bytes, tenant %d)", len(p), tenantLen)
	}
	fixed := p[len(p)-size:]
	t.QueueWait = time.Duration(binary.LittleEndian.Uint64(fixed[0:]))
	t.Service = time.Duration(binary.LittleEndian.Uint64(fixed[8:]))
	t.Source = time.Duration(binary.LittleEndian.Uint64(fixed[16:]))
	t.Generation = binary.LittleEndian.Uint64(fixed[24:])
	t.Bytes = int64(binary.LittleEndian.Uint64(fixed[32:]))
	t.Tenant = string(fixed[trailerFixedSize : trailerFixedSize+tenantLen])
	dataLen = len(p) - size
	if t.Bytes != int64(dataLen) {
		return 0, t, fmt.Errorf("transport: timing trailer byte count %d does not match %d payload bytes", t.Bytes, dataLen)
	}
	return dataLen, t, nil
}
