// Package tracectx defines the compact binary trace context DDStore
// propagates across process boundaries: a 24-byte block carrying a trace
// ID, a parent span ID, and a sampled flag. The TCP data plane prepends it
// to traced request bodies (transport's OpGetTraced/OpGetBatchTraced), the
// fetch engine stamps a fresh child span ID onto every per-owner fan-out,
// and the DDP load loop mints the root context per batch — so one request
// is causally linkable from the training step that asked for it down to
// the owner that served it.
//
// Wire layout (little-endian, 24 bytes):
//
//	[0]      version (currently 1)
//	[1]      flags (bit 0 = sampled)
//	[2:4]    reserved, must be zero on encode, ignored on decode
//	[4:12]   trace ID  (u64, non-zero for a valid context)
//	[12:20]  span ID   (u64)
//	[20:24]  reserved, must be zero on encode, ignored on decode
//
// Decode is defensive by contract: corrupt, truncated, or future-versioned
// contexts decode to (Context{}, false) and MUST be ignored by the frame
// path — a bad trace context never fails a request, it only disables
// tracing for it. The fuzz test pins that property.
package tracectx

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Size is the encoded byte length of a Context.
const Size = 24

// Version is the wire version this package encodes.
const Version = 1

// flagSampled marks a context whose request should record spans.
const flagSampled = 1 << 0

// Context identifies one request's position in a distributed trace. The
// zero Context is "no trace" (Valid reports false).
type Context struct {
	// TraceID identifies the whole request tree; zero means no trace.
	TraceID uint64
	// SpanID identifies the sender's span — the parent of whatever span
	// the receiver opens for this request.
	SpanID uint64
	// Sampled carries the sampling decision made at the root: receivers
	// record spans and return timing trailers only for sampled contexts.
	Sampled bool
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// AppendTo appends the 24-byte wire form to dst and returns the extended
// slice — the allocation-free path for request assembly.
func (c Context) AppendTo(dst []byte) []byte {
	var b [Size]byte
	b[0] = Version
	if c.Sampled {
		b[1] |= flagSampled
	}
	binary.LittleEndian.PutUint64(b[4:], c.TraceID)
	binary.LittleEndian.PutUint64(b[12:], c.SpanID)
	return append(dst, b[:]...)
}

// Decode parses a context from the first Size bytes of b. It returns
// ok=false — and never panics — for short input, an unknown version, or a
// zero trace ID; callers treat that as "tracing off for this request".
// Bytes beyond Size are ignored, so a request body can carry the context
// as a prefix.
func Decode(b []byte) (Context, bool) {
	if len(b) < Size {
		return Context{}, false
	}
	if b[0] != Version {
		return Context{}, false
	}
	c := Context{
		TraceID: binary.LittleEndian.Uint64(b[4:]),
		SpanID:  binary.LittleEndian.Uint64(b[12:]),
		Sampled: b[1]&flagSampled != 0,
	}
	if c.TraceID == 0 {
		return Context{}, false
	}
	return c, true
}

// seq drives ID generation: a process-unique base mixed with a counter
// through splitmix64, so concurrent New/Child calls are cheap (one atomic
// add) and collisions across processes are as unlikely as 64 random bits
// allow.
var seq atomic.Uint64

func init() {
	seq.Store(uint64(time.Now().UnixNano()))
}

// mix64 is the splitmix64 finalizer — a full-avalanche mixer, so
// consecutive counter values map to well-spread IDs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID returns a fresh non-zero 64-bit ID.
func newID() uint64 {
	for {
		if id := mix64(seq.Add(1)); id != 0 {
			return id
		}
	}
}

// New mints a root context: a fresh trace ID, a fresh root span ID, and
// the sampled flag set per the argument.
func New(sampled bool) Context {
	return Context{TraceID: newID(), SpanID: newID(), Sampled: sampled}
}

// Child derives the context for an outgoing sub-request: same trace, a
// fresh span ID (the child's identity; the parent's is what c carried).
// Child of an invalid context is invalid.
func (c Context) Child() Context {
	if !c.Valid() {
		return Context{}
	}
	return Context{TraceID: c.TraceID, SpanID: newID(), Sampled: c.Sampled}
}

// String renders the context for logs and flight-recorder records.
func (c Context) String() string {
	if !c.Valid() {
		return "tracectx(none)"
	}
	return fmt.Sprintf("%016x/%016x", c.TraceID, c.SpanID)
}

// IDString renders a bare trace or span ID the way traces and the flight
// recorder expose them (16 hex digits), with "" for zero.
func IDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}
