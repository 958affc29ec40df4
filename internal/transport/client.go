package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/shardmap"
	"ddstore/internal/wire"
)

// ErrChecksum marks a response whose payload failed CRC32 verification.
// It is transport-level and therefore retried.
var ErrChecksum = errors.New("transport: response checksum mismatch")

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("transport: client closed")

// RemoteError is an application-level error reported by the server (e.g.
// a sample outside its chunk). It arrived over a healthy connection, so it
// is not retried: every retry would get the same answer.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// ErrOverloaded marks a request shed by the server's admission control
// (rate limit, full queue, connection cap, or drain). The connection is
// healthy and the server is alive but saturated, so the client treats it
// as backoff-don't-failover: retry on the same connection after the
// policy's backoff, never re-dial, and never quarantine the peer.
// Match with errors.Is(err, ErrOverloaded).
var ErrOverloaded = errors.New("transport: server overloaded")

// OverloadedError carries the server's shed reason ("rate limit", "queue
// full", "draining", ...) alongside the ErrOverloaded identity.
type OverloadedError struct{ Msg string }

func (e *OverloadedError) Error() string { return "transport: overloaded: " + e.Msg }

// Is reports the ErrOverloaded identity for errors.Is.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// ErrStaleGeneration marks a request the server refused because the
// client's shard map generation no longer owns the sample there: the
// chunk moved. The connection is healthy and the peer is alive, so this
// is refresh-don't-failover: install the map carried in the response and
// retry the new owner. Match with errors.Is(err, ErrStaleGeneration).
var ErrStaleGeneration = errors.New("transport: stale shard map generation")

// StaleGenerationError carries the server's current encoded shard map
// (decode with shardmap.Decode) alongside the ErrStaleGeneration
// identity, so the refresh costs zero extra round trips.
type StaleGenerationError struct{ MapBytes []byte }

func (e *StaleGenerationError) Error() string {
	return "transport: stale shard map generation"
}

// Is reports the ErrStaleGeneration identity for errors.Is.
func (e *StaleGenerationError) Is(target error) bool { return target == ErrStaleGeneration }

// DialFunc opens a connection to addr. Custom dialers let tests route
// through in-memory pipes or faultnet-wrapped connections.
type DialFunc func(addr string) (net.Conn, error)

// ClientOptions configure a Client's resilience behaviour.
type ClientOptions struct {
	// Policy is the retry/deadline policy; zero value = defaults.
	Policy RetryPolicy
	// Counters, if set, receives retry/timeout/checksum event counts.
	Counters Counters
	// Dialer overrides the TCP dialer (nil = net.DialTimeout).
	Dialer DialFunc
	// Tenant, when non-empty, is declared to the server in a hello
	// handshake on every (re)connect, so a multi-tenant front end can
	// charge this client's traffic to the right quota. Every server names
	// it in timing trailers and flight records.
	Tenant string
	// Tracing opts this client into distributed tracing: a request whose
	// trace context is valid and sampled goes out flagged as traced,
	// carrying the context, and returns the server's timing trailer. Every
	// other request runs untraced. It needs no hello: a client with no
	// Tenant is reported as DefaultTenant.
	Tracing bool
}

// Client is a connection to one chunk server. Safe for concurrent use:
// the request/response exchange is serialized per connection, and a broken
// connection is transparently re-dialed on the next attempt.
type Client struct {
	addr     string
	policy   RetryPolicy
	counters Counters
	dialer   DialFunc
	tenant   string
	tracing  bool

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader // buffered reads of conn; Reset by connect on every (re)dial
	req     []byte        // request frame scratch, reused under mu
	one     [1]int64      // a single get's id list, reused under mu: its batch of one allocates none
	helloed bool          // tenant declared on the current connection
	rng     *rand.Rand
	closed  bool
	call    exchange // the request in flight, from begin to finish
}

// exchange is one request's attempt loop, kept on the client under mu so it
// can be split at the write: begin sends, finish receives. do runs the two
// back to back; a group load runs them as one owner's Issue and Collect.
type exchange struct {
	op      byte
	a, b    int64 // b: the request flags, flagTraced included when tc rides along
	ids     []int64
	tc      tracectx.Context
	attempt int
	sent    bool // the current attempt's frame is written, its reply unread
	lastErr error
	began   time.Time // set by a group load, which spreads the wait over its samples
}

// Dial connects to a server with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a server with explicit resilience options. The
// initial connection is established eagerly, under the same retry policy as
// every later reconnect, so configuration errors surface immediately (the
// last dial error, once the attempts are spent) while a connection a faulty
// fabric resets mid-handshake is simply dialed again; later reconnects are
// transparent.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	if len(opts.Tenant) > maxTenantName {
		return nil, fmt.Errorf("transport: tenant name %q exceeds %d bytes", opts.Tenant, maxTenantName)
	}
	c := &Client{
		addr:     addr,
		policy:   opts.Policy.withDefaults(),
		counters: opts.Counters,
		dialer:   opts.Dialer,
		tenant:   opts.Tenant,
		tracing:  opts.Tracing,
	}
	if c.counters == nil {
		c.counters = nopCounters{}
	}
	if c.dialer == nil {
		timeout := c.policy.DialTimeout
		c.dialer = func(addr string) (net.Conn, error) {
			if timeout > 0 {
				return net.DialTimeout("tcp", addr, timeout)
			}
			return net.Dial("tcp", addr)
		}
	}
	c.rng = rand.New(rand.NewSource(c.policy.Seed))
	c.br = bufio.NewReader(nil)
	var err error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if err = c.connect(attempt); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("transport: %w", err)
}

// connect opens attempt number attempt of an operation: every attempt after
// the first is counted as a retry and waits out the policy's backoff, and a
// missing connection is (re)dialed. It is the only place a connection is
// installed, so it is also where the buffered reader is Reset: bytes a
// broken stream left behind can never be parsed as the next response. A
// dial that succeeds on a retry attempt counts as a reconnect. The caller
// holds c.mu, or owns a client nobody else has seen yet.
func (c *Client) connect(attempt int) error {
	if attempt > 0 {
		c.counters.Inc(CounterRetries, 1)
		time.Sleep(c.policy.delay(attempt, c.rng))
	}
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := c.dialer(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br.Reset(conn)
	c.helloed = false
	if attempt > 0 {
		c.counters.Inc(CounterReconnects, 1)
	}
	return nil
}

// Addr returns the server address this client targets.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// do performs one request with the client's retry policy: each
// transport-level failure (broken conn, deadline, checksum reject) drops
// the connection, backs off, re-dials, and retries. Remote application
// errors are returned immediately. All ops are idempotent reads, so a
// retry is always safe. ids is the request body following the header
// (batch ids); nil for body-less ops.
//
// tc is the request's trace context, and the zero Context means untraced.
// When the client traces, tc is valid and sampled, and the op takes request
// flags, the request goes out flagged as traced carrying the context, and
// the server's timing trailer is stripped from the payload and returned.
// Otherwise the request runs untraced and timing is nil.
//
// The returned payload buffer carries one reference owned by the caller.
// Callers that consume the bytes immediately (decode, parse, copy out)
// Release it; GetBatchRaw, which hands parts of it to the outside world as
// plain []byte, keeps it alive by never releasing (the buffer degrades to
// ordinary GC-owned memory).
func (c *Client) do(op byte, a int64, ids []int64, tc tracectx.Context) (*bufarena.Buf, *ServerTiming, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(op, a, 0, ids, tc)
	return c.finish()
}

// begin starts a request's attempt loop, the send half: when the live
// connection needs no dial and no hello it writes the frame, and otherwise
// leaves the first attempt to finish; a failed write spends the attempt as
// it would there. Each request counts as one logical round trip (retries
// are tallied under CounterRetries) — the counter the batching tests use to
// prove B samples cost ⌈B/maxBatch⌉ round trips instead of B. The caller
// holds c.mu until finish returns.
func (c *Client) begin(op byte, a, b int64, ids []int64, tc tracectx.Context) {
	r := &c.call
	if c.tracing && opTable[op].flags&flagTraced != 0 && tc.Valid() && tc.Sampled {
		b |= flagTraced
	}
	*r = exchange{op: op, a: a, b: b, ids: ids, tc: tc}
	c.counters.Inc(CounterRoundTrips, 1)
	if c.closed || c.conn == nil || c.tenant != "" && !c.helloed {
		return
	}
	if err := c.send(r); err != nil {
		c.classify(err, &r.lastErr) // a write error is never terminal
		r.attempt++
		return
	}
	r.sent = true
}

// finish is the receive half: it writes the frame if this attempt has not,
// reads the reply, and on a transport failure backs off, re-dials and goes
// again, until a reply, a terminal error, or the policy's last attempt.
func (c *Client) finish() (*bufarena.Buf, *ServerTiming, error) {
	r := &c.call
	for ; r.attempt < c.policy.MaxAttempts; r.attempt++ {
		if !r.sent {
			if err := c.connect(r.attempt); err != nil {
				if errors.Is(err, ErrClosed) {
					return nil, nil, err
				}
				r.lastErr = err
				continue
			}
			if err := c.send(r); err != nil {
				if ferr := c.classify(err, &r.lastErr); ferr != nil {
					return nil, nil, ferr
				}
				continue
			}
		}
		r.sent = false
		payload, err := c.receive()
		if err == nil {
			if r.b&flagTraced == 0 {
				return payload, nil, nil
			}
			dataLen, timing, terr := parseTimingTrailer(payload.Bytes())
			if terr != nil {
				payload.Release()
				return nil, nil, terr
			}
			payload.Truncate(dataLen)
			return payload, &timing, nil
		}
		if ferr := c.classify(err, &r.lastErr); ferr != nil {
			return nil, nil, ferr
		}
	}
	c.counters.Inc(CounterGiveUps, 1)
	return nil, nil, fmt.Errorf("transport: op %d to %s failed after %d attempts: %w",
		r.op, c.addr, c.policy.MaxAttempts, r.lastErr)
}

// send writes r's frame, declaring the tenant first on a connection that
// has not: admission control then charges the right quota.
func (c *Client) send(r *exchange) error {
	if c.tenant != "" && !c.helloed {
		c.req = appendRequest(c.req[:0], opHello, int64(len(c.tenant)), 0, tracectx.Context{}, nil)
		c.req = append(c.req, c.tenant...)
		if err := c.write(c.req); err != nil {
			return err
		}
		ack, err := c.receive()
		if err != nil {
			return err
		}
		ack.Release()
		c.helloed = true
	}
	c.req = appendRequest(c.req[:0], r.op, r.a, r.b, r.tc, r.ids)
	return c.write(c.req)
}

// appendRequest renders one request frame onto dst: the fixed header, then
// tc when b flags the request as traced, then the body ids. The
// client renders every frame into the scratch slice it keeps under c.mu,
// so a request costs no allocation once that slice has grown to the
// largest frame the connection has sent.
func appendRequest(dst []byte, op byte, a, b int64, tc tracectx.Context, ids []int64) []byte {
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b))
	if opTable[op].has(b, flagTraced) {
		dst = tc.AppendTo(dst)
	}
	return wire.AppendIDs(dst, ids)
}

// classify sorts one failed exchange into the retry taxonomy. A non-nil
// return is terminal (application-level error: every retry would get the
// same answer). Otherwise *lastErr is updated and nil is returned, meaning
// back off and retry: overloaded responses keep the healthy connection
// (the server shed the request, not the stream), transport-level failures
// drop it so the next attempt re-dials. The caller must hold c.mu.
func (c *Client) classify(err error, lastErr *error) error {
	if errors.Is(err, ErrOverloaded) {
		// Backoff-don't-failover: the peer is alive but saturated.
		c.counters.Inc(CounterOverloads, 1)
		*lastErr = err
		return nil
	}
	if errors.Is(err, ErrStaleGeneration) {
		// Terminal at this level: retrying the same peer would answer
		// stale again. The Group refreshes its map from the carried bytes
		// and re-routes to the new owner.
		return err
	}
	var rerr *RemoteError
	if errors.As(err, &rerr) {
		return err
	}
	*lastErr = err
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.counters.Inc(CounterTimeouts, 1)
	}
	if errors.Is(err, ErrChecksum) {
		c.counters.Inc(CounterChecksumErrors, 1)
	}
	// The stream may hold a half-read frame; only a fresh connection is
	// safe to reuse.
	c.conn.Close()
	c.conn = nil
	return nil
}

// write puts one request frame on the live connection in a single write, so
// a retried request never leaves a half frame behind counters or fault
// injectors that account per write, and starts its reply's read deadline:
// the reply is due a ReadTimeout after the request went out, however late it
// is read.
func (c *Client) write(frame []byte) error {
	if c.policy.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.policy.WriteTimeout))
	}
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if c.policy.ReadTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.policy.ReadTimeout))
	}
	return nil
}

// receive reads one framed response on the live connection, with CRC
// verification. The response is read through the connection's buffered
// reader: the head is parsed in place, a small payload is copied out of the
// same read that brought its head, and a large one is read straight into the
// pooled buffer once the reader-full that arrived with the head has been
// copied. On success the caller owns the buffer's single reference, on any
// error the reference is already released.
func (c *Client) receive() (*bufarena.Buf, error) {
	head, err := c.br.Peek(respHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	status := head[0]
	n := int(binary.LittleEndian.Uint32(head[1:]))
	wantCRC := binary.LittleEndian.Uint32(head[5:])
	c.br.Discard(respHeaderSize) // cannot fail: Peek buffered these bytes
	if n > maxPayload {
		return nil, fmt.Errorf("transport: oversized response (%d bytes)", n)
	}
	// Grow the buffer as bytes arrive rather than trusting the advertised
	// length: a corrupt or hostile head must not make us allocate gigabytes
	// for data that never comes.
	size := n
	if size > eagerPayload {
		size = eagerPayload
	}
	buf := bufarena.Get(size)
	read := 0
	for {
		if _, err := io.ReadFull(c.br, buf.Bytes()[read:]); err != nil {
			buf.Release()
			return nil, fmt.Errorf("transport: %w", err)
		}
		read = buf.Len()
		if read == n {
			break
		}
		grown := read * 2
		if grown > n {
			grown = n
		}
		nb := bufarena.Get(grown)
		copy(nb.Bytes(), buf.Bytes())
		buf.Release()
		buf = nb
	}
	payload := buf.Bytes()
	if crc32.ChecksumIEEE(payload) != wantCRC {
		buf.Release()
		return nil, ErrChecksum
	}
	switch status {
	case statusOK:
		return buf, nil
	case statusError:
		msg := string(payload)
		buf.Release()
		return nil, &RemoteError{Msg: msg}
	case statusOverloaded:
		msg := string(payload)
		buf.Release()
		return nil, &OverloadedError{Msg: msg}
	case statusStaleGen:
		// The payload is the server's current encoded shard map; copy it
		// out of the pooled buffer before releasing.
		mb := append([]byte(nil), payload...)
		buf.Release()
		return nil, &StaleGenerationError{MapBytes: mb}
	default:
		buf.Release()
		return nil, fmt.Errorf("transport: unknown response status %d", status)
	}
}

// ShardMap fetches and decodes the server's current shard map. Every
// server serves one — a server given none serves its own chunk as
// generation 1 — so elastic groups bootstrap their ownership view from it
// and static groups read each peer's range from it.
func (c *Client) ShardMap() (*shardmap.Map, error) {
	buf, _, err := c.do(opShardMap, 0, nil, tracectx.Context{})
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	return shardmap.Decode(buf.Bytes())
}

// GetRawTraced fetches the encoded bytes of one sample without decoding.
// Load generators and relays use it to measure or move wire bytes without
// paying (or perturbing the measurement with) graph materialization. The
// returned bytes are plain GC-owned memory, valid for as long as the caller
// holds them: the payload is copied into an exact-size slice and the pooled
// buffer goes back to its pool. tc is the request's trace context: when
// the client traces and tc is valid and sampled, the returned timing holds
// the server's breakdown for this request; otherwise — always, for the zero
// Context — the request runs untraced and timing is nil. On the wire it is
// a batch of one, flagged to be admitted as a lookup.
func (c *Client) GetRawTraced(id int64, tc tracectx.Context) ([]byte, *ServerTiming, error) {
	c.mu.Lock()
	c.one[0] = id
	c.begin(opGetBatch, 1, flagLookup, c.one[:], tc)
	buf, timing, err := c.finish()
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	defer buf.Release()
	p := buf.Bytes()
	if len(p) < 4 || binary.LittleEndian.Uint32(p) != uint32(len(p)-4) {
		return nil, nil, fmt.Errorf("transport: malformed reply to a single get (%d bytes)", len(p))
	}
	raw := make([]byte, len(p)-4)
	copy(raw, p[4:])
	return raw, timing, nil
}

// GetRaw is GetRawTraced without a trace.
func (c *Client) GetRaw(id int64) ([]byte, error) {
	raw, _, err := c.GetRawTraced(id, tracectx.Context{})
	return raw, err
}

// GetBatchBufsTraced fetches the encoded bytes of an arbitrary id list in
// one round trip, returning the pooled response buffer and the per-id
// parts aliasing it. Every id must be in this server's chunk; parts is
// aligned with ids. The caller owns the buffer's single reference and must
// keep it (or a Retain of it) alive for as long as it reads any part, then
// Release. tc is the request's trace context: when the client traces
// and tc is valid and sampled, timing holds the server's breakdown (queue
// wait, service, chunk-source time, tenant, generation) for the whole
// batch; otherwise — always, for the zero Context — the request runs
// untraced and timing is nil.
func (c *Client) GetBatchBufsTraced(ids []int64, tc tracectx.Context) (*bufarena.Buf, [][]byte, *ServerTiming, error) {
	if len(ids) == 0 {
		return nil, nil, nil, nil
	}
	if len(ids) > maxBatchIDs {
		return nil, nil, nil, fmt.Errorf("transport: batch of %d ids exceeds the %d-id limit", len(ids), maxBatchIDs)
	}
	buf, timing, err := c.do(opGetBatch, int64(len(ids)), ids, tc)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, err := batchParts(buf, len(ids))
	if err != nil {
		return nil, nil, nil, err
	}
	return buf, parts, timing, nil
}

// batchParts splits a batch reply into its per-id parts, aliasing buf; when
// the reply does not hold exactly n of them it releases buf and errors.
func batchParts(buf *bufarena.Buf, n int) ([][]byte, error) {
	parts, err := decodeBatchPayload(buf.Bytes(), n)
	if err == nil && len(parts) != n {
		err = fmt.Errorf("transport: got %d payloads for %d requested ids", len(parts), n)
	}
	if err != nil {
		buf.Release()
		return nil, err
	}
	return parts, nil
}

// GetBatchBufs is GetBatchBufsTraced without a trace.
func (c *Client) GetBatchBufs(ids []int64) (*bufarena.Buf, [][]byte, error) {
	buf, parts, _, err := c.GetBatchBufsTraced(ids, tracectx.Context{})
	return buf, parts, err
}

// GetBatchRaw is GetBatchBufs for callers that cache or relay the encoded
// bytes beyond the request: the parts are plain GC-owned memory, because
// the pooled buffer's reference is never released and so the buffer is
// never recycled under the caller.
func (c *Client) GetBatchRaw(ids []int64) ([][]byte, error) {
	_, parts, err := c.GetBatchBufs(ids)
	return parts, err
}
