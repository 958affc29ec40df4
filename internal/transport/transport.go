// Package transport implements a TCP data plane for DDStore, so that a
// store's chunks can be served between real processes over a real network
// instead of the in-process runtime. Each process runs a Server exposing
// its chunk (sample id range plus per-sample encoded bytes); peers Dial it
// and Get samples by id. A Group stitches several peers into one replica
// group with the same owner arithmetic as the in-process store, and can
// span multiple replica groups for failover.
//
// Unlike the paper's reliable-MPI fabric, a TCP fabric fails: peers crash,
// connections reset, reads stall, bytes corrupt. The data plane is
// therefore hardened end to end — per-operation deadlines, capped
// exponential backoff with jitter, transparent reconnect, CRC32 payload
// checksums, and replica failover (see retry.go, client.go, group.go).
// internal/faultnet injects exactly these faults deterministically to
// prove the behaviour.
//
// The in-process runtime remains the default (the paper's MPI RMA has no
// server-side CPU involvement, which goroutine shared memory models
// faithfully); the TCP plane exists to demonstrate and test the store
// across process boundaries, e.g. one server per node.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/flightrec"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/shardmap"
)

// Protocol constants. Every request is a fixed 17-byte header
// (op u8, a i64, b i64); every response is a 9-byte head
// (status u8, len u32, crc32 u32) followed by the payload. The CRC is
// IEEE CRC32 over the payload, so a flipped bit anywhere in the frame is
// detected by either the length bound or the checksum.
const (
	opGetBatch = 4 // request a ids (listed in the body), flags in b; response: length-prefixed graphs
	opHello    = 5 // declare tenant identity + feature bits (b); response: server feature word
	opShardMap = 6 // request the current shard map; response payload: encoded shardmap.Map
	// Ops 1 (chunk range), 2 (single get), 3 (range), 7 (traced get) and
	// 8 (traced batch) are retired — answered like any unknown op — and
	// must not be reused. A single get is a batch of one, the trace context
	// and admission class ride in the request flags, and every server
	// reports its range in the shard map it serves.

	statusOK         = 0
	statusError      = 1
	statusOverloaded = 2 // request shed by admission control: back off, don't fail over
	statusStaleGen   = 3 // requested id not owned under the current shard map generation; payload IS the server's current encoded map: refresh and retry, don't fail over

	reqHeaderSize  = 17
	respHeaderSize = 9
)

// Request flags, carried in header field b by an op whose opSpec lists
// them. Any other set bit is an error on a still-aligned stream: the body
// length depends only on the count and flagTraced.
const (
	flagTraced = 1 << 0 // a trace context leads the body (negotiated at hello; trace.go)
	flagLookup = 1 << 1 // admitted as ClassLookup, not the op's class: a single get
)

// maxPayload bounds a response so a corrupt peer cannot make us allocate
// unbounded memory; eagerPayload bounds how much of that a client will
// allocate before any payload bytes have actually arrived.
const (
	maxPayload   = 1 << 30
	eagerPayload = 1 << 20
)

// maxTenantName bounds the opHello body so a hostile handshake cannot make
// the server allocate unbounded memory.
const maxTenantName = 128

// Class is the priority class admission control schedules a request on.
// The server reads it from the op table and the request's lookup flag:
// single-sample gets (lookup-flagged batches of one) and shard map probes
// are interactive, batch fetches are training bulk traffic.
type Class uint8

// The two priority classes.
const (
	ClassLookup Class = iota // interactive: ShardMap, GetRaw
	ClassBulk                // training: GetBatchBufs, group loads
)

// String returns the label value used in metrics ("lookup", "bulk").
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "lookup"
}

// opSpec is one row of the wire-op table: every per-op fact either end of
// the protocol needs, stated once. The server's metrics, admission class,
// body framing, header validation and dispatch are all read from here, and
// so is whether the client may flag a request as traced.
type opSpec struct {
	// name is the label value the op is metered and flight-recorded under.
	name string
	// class is the priority class admission control schedules the op on
	// when the request does not set flagLookup.
	class Class
	// flags is the set of request flags header field b may carry; zero when
	// b is not a flags word (hello's is the client's feature word).
	flags int64
	// unit and max describe a counted body: header field a carries a count
	// in [1, max] and the body holds unit bytes per count. A count outside
	// the bounds leaves the body length unknown, so the stream cannot be
	// resynchronized and the server drops the connection after answering.
	// unit 0 means the op has no counted body.
	unit, max int64
	// control marks connection control (hello): it changes who the
	// connection is rather than reading data, so it bypasses admission and
	// the flight recorder.
	control bool
	// serve appends the response's payload parts to the connection's part
	// list (rq.st.parts), to be written with one vectored write (the
	// source's cached sample slices are referenced in place, never
	// concatenated into a scratch payload), and returns the number of
	// samples the request asked for.
	serve func(s *Server, rq request) (samples int, err error)
}

// request is what an op's serve func sees of one request: the count, the
// body after any trace context, and the connection it came in on.
type request struct {
	a    int64
	body []byte
	st   *connState
}

// opTable is indexed by wire op. It has a row for every value the op byte
// can take; a row with an empty name is an op this build does not know: it
// has no body, so the stream stays aligned, and nothing to serve — the
// handler answers it with an error status.
var opTable = [256]opSpec{
	opGetBatch: {name: "getbatch", class: ClassBulk, flags: flagTraced | flagLookup, unit: 8, max: maxBatchIDs, serve: serveBatch},
	opHello:    {name: "hello", class: ClassLookup, unit: 1, max: maxTenantName, control: true, serve: serveHello},
	opShardMap: {name: "shardmap", class: ClassLookup, serve: serveShardMap},
}

// opName returns the label value an op is metered and flight-recorded
// under.
func opName(op byte) string {
	if name := opTable[op].name; name != "" {
		return name
	}
	return fmt.Sprintf("op-%d", op)
}

// has reports whether header field b of a request for this op sets flag.
func (sp *opSpec) has(b, flag int64) bool { return b&sp.flags&flag != 0 }

// bodyLen returns how many body bytes follow a request header whose count
// field is a and whose flags field is b, or an error when the count is
// outside the op's bounds.
func (sp *opSpec) bodyLen(a, b int64) (int64, error) {
	var n int64
	if sp.has(b, flagTraced) {
		n = tracectx.Size
	}
	if sp.unit == 0 {
		return n, nil
	}
	if a < 1 || a > sp.max {
		return 0, fmt.Errorf("%s count %d outside [1,%d]", sp.name, a, sp.max)
	}
	return n + sp.unit*a, nil
}

// ConnGate is the per-connection handle a serving front end returns from
// AdmitConn. The server calls Hello when the client declares a tenant,
// Admit before serving each request (blocking while the request waits in
// an admission queue, or failing with an ErrOverloaded-wrapped error to
// shed it), and Close when the connection ends. Admit's release callback
// must be invoked exactly once, after the response is written, with the
// payload size — the hook byte quotas are charged through.
type ConnGate interface {
	Hello(tenant string) error
	Admit(class Class) (release func(payloadBytes int64), err error)
	Close()
}

// Admission is the connection-level admission hook a serving front end
// (internal/frontend) implements. AdmitConn runs once per accepted
// connection; an error rejects the connection — the server answers its
// first request with statusOverloaded and closes it, so well-behaved
// clients back off instead of hammering a full or draining server.
type Admission interface {
	AdmitConn(remoteAddr string) (ConnGate, error)
}

// ShardMapSource is the server-side hook into a versioned ownership map
// (internal/shardmap; serveboot adapts each owner's live shardmap.Store,
// and a server given none serves its chunkMap). The server answers
// requests for samples it does not own under the current generation with
// a stale-generation status whose payload is the current encoded map —
// the client refreshes its map from that payload and retries the right
// owner in one round trip, instead of treating a moved chunk as a dead
// peer. The map bootstrap op serves the same encoded bytes on demand.
type ShardMapSource interface {
	// Generation returns the current shard map generation.
	Generation() uint64
	// Owns reports whether this server holds sample id under the current
	// generation (as primary or replica, including chunks migrated in but
	// not yet cut over).
	Owns(id int64) bool
	// Encoded returns the current generation's wire encoding
	// (shardmap.Map.Encode; cached per generation by shardmap.Store).
	Encoded() ([]byte, error)
}

// chunkMap is the shard map of a server given none: generation 1, one
// member (ID and Addr the listen address) owning one shard, the chunk's
// [lo, hi). It never advances. An empty chunk has no valid map, so such a
// server answers the map bootstrap op with an error.
type chunkMap struct {
	lo, hi int64
	enc    []byte
	err    error
}

func newChunkMap(addr string, src ChunkSource) *chunkMap {
	lo, hi := src.LocalRange()
	m := &shardmap.Map{Gen: 1, Members: []shardmap.Member{{ID: addr, Addr: addr}},
		Shards: []shardmap.Shard{{Lo: lo, Hi: hi, Owners: []int{0}}}}
	c := &chunkMap{lo: lo, hi: hi}
	c.enc, c.err = m.Encode()
	return c
}

func (c *chunkMap) Generation() uint64       { return 1 }
func (c *chunkMap) Owns(id int64) bool       { return id >= c.lo && id < c.hi }
func (c *chunkMap) Encoded() ([]byte, error) { return c.enc, c.err }

// staleGenError is the server-internal signal that a request touched a
// sample this server no longer owns: statusOf turns it into a
// stale-generation response carrying the current map.
type staleGenError struct{ mapBytes []byte }

func (e *staleGenError) Error() string { return "stale shard map generation" }

// ChunkSource is what a Server exposes: a contiguous range of samples with
// access to their encoded bytes. core.Store implements it for its local
// chunk (LocalRange + LocalSampleBytes).
type ChunkSource interface {
	LocalRange() (lo, hi int64)
	LocalSampleBytes(id int64) ([]byte, error)
}

// MemChunk is a self-contained ChunkSource: samples [Lo, Hi) held encoded
// in memory. Useful for standalone servers and tests.
type MemChunk struct {
	Lo, Hi  int64
	Encoded [][]byte // Encoded[i] is sample Lo+i
}

// NewMemChunk encodes graphs into a chunk starting at lo.
func NewMemChunk(lo int64, graphs []*graph.Graph) *MemChunk {
	enc := make([][]byte, len(graphs))
	for i, g := range graphs {
		enc[i] = g.Encode()
	}
	return &MemChunk{Lo: lo, Hi: lo + int64(len(graphs)), Encoded: enc}
}

// LocalRange implements ChunkSource.
func (m *MemChunk) LocalRange() (int64, int64) { return m.Lo, m.Hi }

// LocalSampleBytes implements ChunkSource.
func (m *MemChunk) LocalSampleBytes(id int64) ([]byte, error) {
	if id < m.Lo || id >= m.Hi {
		return nil, fmt.Errorf("transport: sample %d not in chunk [%d,%d)", id, m.Lo, m.Hi)
	}
	return m.Encoded[id-m.Lo], nil
}

// ServerOptions configure a Server's defensive limits.
type ServerOptions struct {
	// WriteTimeout bounds each response write, so a stalled client cannot
	// pin a handler goroutine forever. 0 means no limit.
	WriteTimeout time.Duration
	// IdleTimeout closes a connection that sends no request for this long.
	// 0 means no limit.
	IdleTimeout time.Duration
	// MaxConns caps concurrent connection goroutines. When the cap is
	// reached, further accepted connections are closed immediately and
	// counted (ddstore_serve_accept_rejected_total) — the hard backstop
	// under the politer per-tenant limits an Admission layer enforces. 0
	// preserves the historical unbounded behaviour.
	MaxConns int
	// Admission, when non-nil, gates every connection and request through
	// a serving front end (internal/frontend): tenant identity, rate
	// limits, priority queues, and load shedding.
	Admission Admission
	// ShardMap is the ownership map the server answers under: every
	// requested sample is checked against its live generation, un-owned
	// samples answer with the stale-generation status carrying the current
	// map, and the map bootstrap op serves it. nil means the server's own
	// chunk as generation 1 (chunkMap), which never advances.
	ShardMap ShardMapSource
	// Metrics, when non-nil, records per-request service latency into the
	// canonical fetch-latency histogram plus per-op request, error, and
	// payload-byte counters — what ddstore-serve exposes on /metrics.
	Metrics *obs.Registry
	// FlightRecorder, when non-nil, receives a structured record for every
	// errored, shed, or stale-answered request, and — when SlowThreshold is
	// set — every successful request slower than the threshold.
	FlightRecorder *flightrec.Recorder
	// SlowThreshold is the service time above which a successful request is
	// flight-recorded as slow. 0 disables slow recording.
	SlowThreshold time.Duration
}

// serverMetrics holds the server's pre-resolved instrument handles so the
// request loop never touches the registry's lookup path.
type serverMetrics struct {
	reqs        [256]*obs.Counter // indexed by op, like opTable; nil for unknown ops
	errors      *obs.Counter
	bytes       *obs.Counter
	stales      *obs.Counter
	lat         *obs.Histogram
	acceptRejct *obs.Counter
	connRejects *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	reg.Help("ddstore_serve_requests_total", "Requests handled by the chunk server, by op.")
	reg.Help("ddstore_serve_errors_total", "Requests answered with an error status.")
	reg.Help("ddstore_serve_bytes_total", "Response payload bytes served.")
	reg.Help("ddstore_serve_stale_gen_total", "Requests answered with a stale-generation status (sample not owned under the current shard map).")
	m := &serverMetrics{
		errors:      reg.Counter("ddstore_serve_errors_total"),
		bytes:       reg.Counter("ddstore_serve_bytes_total"),
		stales:      reg.Counter("ddstore_serve_stale_gen_total"),
		lat:         obs.FetchLatencyHistogram(reg),
		acceptRejct: reg.Counter(obs.MetricAcceptRejected),
		connRejects: reg.Counter(obs.MetricConnRejected),
	}
	reg.Help(obs.MetricAcceptRejected, "Accepted connections closed because the MaxConns goroutine cap was reached.")
	reg.Help(obs.MetricConnRejected, "Connections refused by admission control with an overloaded status.")
	for op := range opTable {
		if name := opTable[op].name; name != "" {
			m.reqs[op] = reg.Counter("ddstore_serve_requests_total", "op", name)
		}
	}
	return m
}

// observe records one handled request by the status it was answered with.
func (m *serverMetrics) observe(op, status byte, payload int, dur time.Duration) {
	if m == nil {
		return
	}
	if m.reqs[op] != nil {
		m.reqs[op].Inc()
	}
	switch status {
	case statusOK:
	case statusStaleGen:
		// A stale-generation answer is migration working as designed, not
		// a server fault — metered separately from the error counter.
		m.stales.Inc()
	default:
		m.errors.Inc()
	}
	m.bytes.Add(int64(payload))
	m.lat.ObserveDuration(dur)
}

// connState tracks one live connection: busy is set while its handler is
// executing a request (vs. blocked waiting for the next header), so Drain
// can wake idle handlers without cutting an in-flight request short.
// Everything else belongs to the handler goroutine alone.
type connState struct {
	busy   atomic.Bool
	gate   ConnGate // nil without ServerOptions.Admission
	tenant string   // declared by the connection's most recent hello

	// Request scratch. A connection serves one request at a time and
	// nothing here outlives the response write, so every request reuses
	// what the last one left instead of allocating its own. Growth is
	// bounded by the counts the op table validates before a byte of body
	// is read (maxBatchIDs, maxTenantName).
	body     []byte                   // request body: trace context, then ids or a tenant name
	ids      []int64                  // the sample ids the request names
	prefixes []byte                   // batch framing: one 4-byte length per sample, in one slab
	parts    [][]byte                 // response payload; aliases the source's sample slices until reset
	trailer  []byte                   // timing trailer of a traced response
	head     [respHeaderSize + 4]byte // the response head, and room for a first length prefix behind it
	iov      [][]byte                 // backing array of bufs: the head, then the non-empty parts
	bufs     net.Buffers              // the value the vectored write consumes
}

// reset ends a request's use of the scratch once its response is written:
// every reference to a source sample slice is cleared, so the scratch never
// pins an entry the lazy chunk cache has evicted.
func (st *connState) reset() {
	clear(st.parts)
	st.parts = st.parts[:0]
}

// Server serves one chunk over TCP.
type Server struct {
	ln        net.Listener
	src       ChunkSource
	opts      ServerOptions
	metrics   *serverMetrics // nil without ServerOptions.Metrics
	sem       chan struct{}  // nil without ServerOptions.MaxConns
	draining  atomic.Bool
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     map[net.Conn]*connState
	done      chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port)
// with default options.
func Serve(addr string, src ChunkSource) (*Server, error) {
	return ServeWith(addr, src, ServerOptions{})
}

// ServeWith starts a server on addr with explicit options.
func ServeWith(addr string, src ChunkSource, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ServeListener(ln, src, opts), nil
}

// ServeListener serves on an existing listener. This is the hook for
// wrapping the accept path — faultnet wraps a real listener to inject
// resets, stalls, and corruption into every accepted connection.
func ServeListener(ln net.Listener, src ChunkSource, opts ServerOptions) *Server {
	if opts.ShardMap == nil {
		opts.ShardMap = newChunkMap(ln.Addr().String(), src)
	}
	s := &Server{ln: ln, src: src, opts: opts, conns: map[net.Conn]*connState{}, done: make(chan struct{})}
	if opts.Metrics != nil {
		s.metrics = newServerMetrics(opts.Metrics)
	}
	if opts.MaxConns > 0 {
		s.sem = make(chan struct{}, opts.MaxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Drain moves the server into graceful shutdown: the listener closes (no
// new connections), handlers blocked waiting for their next request are
// woken and closed, and handlers mid-request are left to finish — Drain
// blocks until every handler has exited or the timeout expires, and
// reports whether the drain completed cleanly. Connections that complete
// their in-flight request while draining are closed instead of looping
// for another request. Call Close afterwards to hard-close whatever is
// left; Drain with timeout 0 just performs the stop-accepting/nudge step.
func (s *Server) Drain(timeout time.Duration) bool {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		s.mu.Lock()
		for c, st := range s.conns {
			if !st.busy.Load() {
				// Wake the handler out of its blocking header read; it
				// observes the draining flag and closes the connection.
				c.SetReadDeadline(time.Now())
			}
		}
		s.mu.Unlock()
	})
	if timeout <= 0 {
		return false
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the server and its connections. It is idempotent, so a
// server killed mid-run (chaos tests, signal handlers) can be closed again
// by deferred cleanup.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		// Drain already closed the listener; closing it again is not a
		// failure of this shutdown.
		if err = s.ln.Close(); errors.Is(err, net.ErrClosed) {
			err = nil
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// At the goroutine cap: close without spawning anything.
				conn.Close()
				if s.metrics != nil {
					s.metrics.acceptRejct.Inc()
				}
				continue
			}
		}
		st := &connState{}
		s.mu.Lock()
		s.conns[conn] = st
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				if s.sem != nil {
					<-s.sem
				}
			}()
			if s.opts.Admission != nil {
				gate, err := s.opts.Admission.AdmitConn(conn.RemoteAddr().String())
				if err != nil {
					s.rejectConn(conn, st, err)
					return
				}
				defer gate.Close()
				st.gate = gate
			}
			s.handle(conn, st)
		}()
	}
}

// rejectReadTimeout bounds how long a rejected connection may dawdle over
// its first request before the server gives up on delivering a status.
const rejectReadTimeout = 2 * time.Second

// rejectConn answers a connection refused by admission control: it reads
// requests (consuming a body when the op carries one, so each response
// frame is unambiguous) and replies to every one with the overloaded/
// draining status, so a client that backs off and retries on the same
// connection keeps seeing the status instead of a broken pipe. It
// returns — and the caller closes the connection — once the client goes
// quiet for rejectReadTimeout or hangs up, or, as handle does, after
// answering a count out of bounds, which leaves the stream unparseable.
func (s *Server) rejectConn(conn net.Conn, st *connState, cause error) {
	if s.metrics != nil {
		s.metrics.connRejects.Inc()
	}
	br := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(rejectReadTimeout))
		header, err := br.Peek(reqHeaderSize)
		if err != nil {
			return
		}
		op := header[0]
		a := int64(binary.LittleEndian.Uint64(header[1:]))
		b := int64(binary.LittleEndian.Uint64(header[9:]))
		br.Discard(reqHeaderSize) // cannot fail: Peek buffered these bytes
		// Drain the body without keeping it: the bytes are discarded
		// anyway, and an error path must not allocate proportional to an
		// attacker-supplied length.
		sp := &opTable[op]
		n, lerr := sp.bodyLen(a, b)
		if lerr == nil && n > 0 {
			if _, err := br.Discard(int(n)); err != nil {
				return
			}
		}
		if rec := s.opts.FlightRecorder; rec != nil && !sp.control {
			rec.Add(flightrec.Record{Kind: flightrec.KindShed, Op: opName(op), Err: cause.Error()})
		}
		if _, werr := s.writeFrame(conn, st, cause); werr != nil || lerr != nil {
			return
		}
	}
}

// serveBatch trusts the body length because the count was validated, so
// the connection stays usable even if an id is out of range.
func serveBatch(s *Server, rq request) (int, error) {
	rq.st.ids = decodeBatchIDs(rq.st.ids[:0], rq.body, int(rq.a))
	return s.sampleParts(rq.st, rq.st.ids)
}

// serveHello switches the connection's tenant identity and acknowledges
// with the server's feature word, so both sides know which protocol
// extensions are safe to use on this connection. Old clients release the
// payload unread.
func serveHello(s *Server, rq request) (int, error) {
	name := string(rq.body)
	if rq.st.gate != nil {
		if err := rq.st.gate.Hello(name); err != nil {
			return 0, err
		}
	}
	rq.st.tenant = name
	feat := make([]byte, 8)
	binary.LittleEndian.PutUint64(feat, featureTracing)
	rq.st.parts = append(rq.st.parts, feat)
	return 0, nil
}

func serveShardMap(s *Server, rq request) (int, error) {
	mb, err := s.opts.ShardMap.Encoded()
	if err != nil {
		return 0, err
	}
	rq.st.parts = append(rq.st.parts, mb)
	return 0, nil
}

func (s *Server) handle(conn net.Conn, st *connState) {
	// One buffered reader per connection: a request's header and body (a
	// batch's trace context and ids) arrive in one read, and
	// pipelined requests in as few reads as the kernel delivers them in.
	br := bufio.NewReader(conn)
	for {
		if s.draining.Load() {
			return
		}
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		header, rerr := br.Peek(reqHeaderSize)
		if rerr != nil {
			return
		}
		st.busy.Store(true)
		op := header[0]
		a := int64(binary.LittleEndian.Uint64(header[1:]))
		b := int64(binary.LittleEndian.Uint64(header[9:]))
		br.Discard(reqHeaderSize) // cannot fail: Peek buffered these bytes
		// The request's clock reads are chained — start, admit start, source
		// start, source end, end — so each interval's end is the next one's
		// start and the trailer's parts can never sum past its whole.
		start := time.Now()
		sp := &opTable[op]
		var err error
		if sp.name == "" {
			err = fmt.Errorf("unknown op %d", op)
		}
		bodyLen, cerr := sp.bodyLen(a, b)
		if cerr != nil {
			// The length of the request body is unknown, so the stream
			// cannot be resynchronized: report the error, then drop the
			// connection.
			status, _ := s.writeFrame(conn, st, cerr)
			s.metrics.observe(op, status, 0, time.Since(start))
			return
		}
		// Ops with a body consume it before validation and admission, so an
		// error or shed response leaves the stream aligned on the next
		// request header.
		var body []byte
		if bodyLen > 0 {
			st.body = slices.Grow(st.body[:0], int(bodyLen))
			body = st.body[:bodyLen]
			if _, rerr := io.ReadFull(br, body); rerr != nil {
				return
			}
		}
		if err == nil && sp.flags != 0 && b&^sp.flags != 0 {
			err = fmt.Errorf("%s: unknown request flags %#x", sp.name, b&^sp.flags)
		}
		// A corrupt or truncated trace context never fails the request: it
		// decodes invalid and merely disables tracing for it (tracectx's
		// documented contract, pinned by its fuzz test).
		var tc tracectx.Context
		if sp.has(b, flagTraced) {
			if err == nil {
				tc, _ = tracectx.Decode(body)
			}
			body = body[tracectx.Size:]
		}
		// The request is fully read: an idle-timeout deadline (or a Drain
		// nudge that raced the header) must not cut the in-flight request
		// short, e.g. while it waits in an admission queue.
		if s.opts.IdleTimeout > 0 || s.draining.Load() {
			conn.SetReadDeadline(time.Time{})
		}
		// Admission: data ops pass through the front end's rate limits and
		// priority queues, blocking here while queued and failing with an
		// overloaded status when shed. The queue wait is measured here and
		// reported in the timing trailer.
		var release func(int64)
		admitStart := time.Now()
		srcStart := admitStart
		if err == nil && st.gate != nil && !sp.control {
			class := sp.class
			if sp.has(b, flagLookup) {
				class = ClassLookup
			}
			release, err = st.gate.Admit(class)
			srcStart = time.Now()
		}
		queueWait := srcStart.Sub(admitStart)
		samples := 0
		if err == nil {
			samples, err = sp.serve(s, request{a: a, body: body, st: st})
		}
		srcEnd := time.Now()
		sourceTime := srcEnd.Sub(srcStart)
		total := 0
		if err == nil {
			for _, p := range st.parts {
				total += len(p)
			}
		}
		// Traced success responses carry the server's timing breakdown as a
		// trailer inside the same frame; its bytes ride the existing
		// length/CRC envelope.
		if err == nil && tc.Valid() && tc.Sampled {
			st.trailer = appendTimingTrailer(st.trailer[:0], ServerTiming{
				QueueWait:  queueWait,
				Service:    srcEnd.Sub(start),
				Source:     sourceTime,
				Bytes:      int64(total),
				Generation: s.opts.ShardMap.Generation(),
				Tenant:     st.tenant,
			})
			st.parts = append(st.parts, st.trailer)
			total += len(st.trailer)
		}
		// The part lengths are summed before the frame writer's CRC pass: a
		// reply the frame's length field and the client's response bound
		// cannot carry is answered as an error with the stream still
		// aligned, never as a length that wraps.
		if total > maxPayload {
			err = fmt.Errorf("response of %d bytes exceeds the %d-byte frame limit", total, maxPayload)
			total = 0
		}
		status, werr := s.writeFrame(conn, st, err)
		st.reset()
		if release != nil {
			release(int64(total))
		}
		dur := time.Since(start)
		s.metrics.observe(op, status, total, dur)
		if !sp.control {
			s.recordRequest(op, status, st.tenant, tc, samples, total, queueWait, sourceTime, dur, err)
		}
		st.busy.Store(false)
		if werr != nil {
			return
		}
	}
}

// recordRequest feeds the flight recorder: errored, shed, and
// stale-answered requests always, successful ones only when they exceeded
// the slow threshold.
func (s *Server) recordRequest(op, status byte, tenant string, tc tracectx.Context, samples, total int, queueWait, source, dur time.Duration, err error) {
	rec := s.opts.FlightRecorder
	if rec == nil {
		return
	}
	var kind flightrec.Kind
	switch {
	case status == statusStaleGen:
		kind = flightrec.KindStale
	case status == statusOverloaded:
		kind = flightrec.KindShed
	case status != statusOK:
		kind = flightrec.KindError
	case s.opts.SlowThreshold > 0 && dur >= s.opts.SlowThreshold:
		kind = flightrec.KindSlow
	default:
		return
	}
	r := flightrec.Record{
		Kind:        kind,
		Op:          opName(op),
		Tenant:      tenant,
		TraceID:     tracectx.IDString(tc.TraceID),
		DurMs:       flightrec.Ms(dur),
		QueueWaitMs: flightrec.Ms(queueWait),
		SourceMs:    flightrec.Ms(source),
		Bytes:       int64(total),
		Samples:     samples,
		Generation:  s.opts.ShardMap.Generation(),
	}
	if err != nil {
		r.Err = err.Error()
	}
	rec.Add(r)
}

// ownsAll checks every id against the shard map: the first id this server
// does not own under the current generation turns the whole request into a
// stale-generation answer carrying the current map. Migration keeps data
// addressable throughout — the old owner answers stale only after it has
// applied the generation that moved the chunk, by which point the new owner
// serves it.
func (s *Server) ownsAll(ids []int64) error {
	sm := s.opts.ShardMap
	for _, id := range ids {
		if !sm.Owns(id) {
			mb, err := sm.Encoded()
			if err != nil {
				return err
			}
			return &staleGenError{mapBytes: mb}
		}
	}
	return nil
}

// sampleParts gathers the requested samples onto the connection's part
// list, each preceded by its 4-byte length (all prefixes sharing one slab)
// and each sample's cached bytes referenced directly, so the reply costs
// zero per-sample copies. Any un-owned or out-of-range id fails the whole
// request — the client grouped the ids by owner, so a stray id is a routing
// or protocol error, not a partial-result situation.
func (s *Server) sampleParts(st *connState, ids []int64) (int, error) {
	// Range before ownership: an id outside the keyspace is a bad request,
	// not a moved chunk, and must not be answered with a map to retry under.
	lo, hi := s.src.LocalRange()
	for _, id := range ids {
		if id < lo || id >= hi {
			return len(ids), fmt.Errorf("sample %d outside chunk [%d,%d)", id, lo, hi)
		}
	}
	if err := s.ownsAll(ids); err != nil {
		return len(ids), err
	}
	st.prefixes = slices.Grow(st.prefixes[:0], 4*len(ids))[:4*len(ids)]
	for i, id := range ids {
		one, err := s.src.LocalSampleBytes(id)
		if err != nil {
			// A cutover may have moved id away since ownsAll and its old
			// owner dropped the shard: answer the new map, which the
			// client retries under, not a hard error.
			if stale := s.ownsAll(ids[i : i+1]); stale != nil {
				return len(ids), stale
			}
			return len(ids), err
		}
		pre := st.prefixes[4*i : 4*i+4 : 4*i+4]
		binary.LittleEndian.PutUint32(pre, uint32(len(one)))
		st.parts = append(st.parts, pre, one)
	}
	return len(ids), nil
}

// statusOf maps a request's outcome to the status it is answered with and,
// for a failure, the payload that stands in for the response parts. It is
// the one place an error is sorted into the wire's taxonomy; metrics and
// the flight recorder go by the status it returns.
func statusOf(err error) (status byte, payload []byte) {
	if err == nil {
		return statusOK, nil
	}
	var sg *staleGenError
	switch {
	case errors.As(err, &sg):
		// The refresh is the payload: the client installs this map and
		// retries the right owner without an extra round trip.
		return statusStaleGen, sg.mapBytes
	case errors.Is(err, ErrOverloaded):
		return statusOverloaded, []byte(err.Error())
	default:
		return statusError, []byte(err.Error())
	}
}

// writeFrame sends one response frame — status byte, total length, CRC —
// followed by the connection's payload parts in a single vectored write
// (writev on TCP connections; net.Buffers falls back to sequential writes
// elsewhere), and returns the status it answered with. The CRC is computed
// incrementally over the parts, so the wire format is byte-identical to the
// old single-payload framing and existing clients need no changes. On err
// the parts are ignored and the error's payload (statusOf) is sent instead.
// The head, the iovec list and the net.Buffers value the write consumes all
// live in the connection's scratch; the list is cleared once the write
// returns, however much of it the write consumed. A sample reply's first
// length prefix rides in the head's buffer, so a single get is two buffers
// (two writes on a connection without writev), head and sample.
func (s *Server) writeFrame(conn net.Conn, st *connState, err error) (byte, error) {
	status, fail := statusOf(err)
	if err != nil {
		clear(st.parts)
		st.parts = append(st.parts[:0], fail)
	}
	st.head[0] = status
	st.iov = append(st.iov[:0], st.head[:respHeaderSize])
	total := 0
	crc := uint32(0)
	for _, p := range st.parts {
		if len(p) == 0 {
			continue
		}
		total += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
		if len(st.iov) == 1 && respHeaderSize+len(p) <= len(st.head) {
			st.iov[0] = append(st.iov[0], p...)
			continue
		}
		st.iov = append(st.iov, p)
	}
	binary.LittleEndian.PutUint32(st.head[1:], uint32(total))
	binary.LittleEndian.PutUint32(st.head[5:], crc)
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	st.bufs = st.iov
	_, werr := st.bufs.WriteTo(conn)
	clear(st.iov)
	return status, werr
}
