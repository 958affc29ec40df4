// Package faultnet is a deterministic, seeded fault injector for the TCP
// data plane. It wraps net.Listener / net.Conn to inject the faults a real
// fabric produces — connection resets, read/write stalls, partial writes,
// corrupt payloads, and slow-start latency — under the control of a
// Scenario, so every chaos test is reproducible: the same scenario seed
// and operation sequence injects the same faults.
//
// The injector sits on the accept path (Injector.Listener wrapping a
// server's listener) or the dial path (Injector.Dialer wrapping a client's
// DialFunc). Each connection derives its own RNG from (Scenario.Seed,
// connection ordinal), so per-connection fault sequences do not depend on
// interleaving across connections.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Scenario describes one reproducible fault mix. Probabilities are checked
// independently per I/O operation (per Read and per Write on a wrapped
// connection), in the fixed order reset, stall, partial write, corruption,
// so a draw sequence is a pure function of the scenario and the operation
// sequence on a connection.
type Scenario struct {
	// Seed drives every random draw. The zero seed is valid (and distinct
	// from seed 1).
	Seed int64

	// ResetProb is P(the operation aborts the connection), modelling a
	// peer crash or an RST from a middlebox.
	ResetProb float64

	// StallProb is P(the operation first sleeps StallFor), modelling a
	// hung peer or a congested path. The peer's deadline, not the stall,
	// decides who gives up first.
	StallProb float64
	StallFor  time.Duration

	// PartialWriteProb is P(a Write delivers only a prefix and then aborts
	// the connection), modelling a peer dying mid-frame.
	PartialWriteProb float64

	// CorruptProb is P(a Write flips one byte), modelling payload
	// corruption in flight. Wire CRC32 checksums must catch this.
	CorruptProb float64

	// SlowStart adds fixed latency to the first operation of every
	// connection, modelling cold paths (ARP, route lookup, TLS...).
	SlowStart time.Duration
}

// Stats counts the faults an injector actually fired, by kind. Chaos tests
// assert on these to prove a scenario exercised what it claims to.
type Stats struct {
	Resets        int64
	Stalls        int64
	PartialWrites int64
	Corruptions   int64
	SlowStarts    int64
	Conns         int64
}

// ErrInjected marks every error produced by the injector, so tests can
// tell injected faults from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Injector applies one Scenario to any number of connections.
type Injector struct {
	sc Scenario

	resets      atomic.Int64
	stalls      atomic.Int64
	partials    atomic.Int64
	corruptions atomic.Int64
	slowStarts  atomic.Int64
	connSeq     atomic.Int64
}

// New returns an injector for the scenario.
func New(sc Scenario) *Injector {
	return &Injector{sc: sc}
}

// Stats returns a snapshot of the fault counts fired so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Resets:        in.resets.Load(),
		Stalls:        in.stalls.Load(),
		PartialWrites: in.partials.Load(),
		Corruptions:   in.corruptions.Load(),
		SlowStarts:    in.slowStarts.Load(),
		Conns:         in.connSeq.Load(),
	}
}

// Conn wraps a single connection with the injector's scenario.
func (in *Injector) Conn(nc net.Conn) net.Conn {
	seq := in.connSeq.Add(1)
	c := &conn{
		Conn: nc,
		in:   in,
		rng:  rand.New(rand.NewSource(in.sc.Seed ^ seq*0x1E3779B97F4A7C15)),
	}
	c.first.Store(true)
	return c
}

// Listener wraps a listener so every accepted connection is injected.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(nc), nil
}

// conn injects faults into one connection's Reads and Writes. The RNG is
// guarded by mu so concurrent use keeps the draw sequence well-defined.
type conn struct {
	net.Conn
	in    *Injector
	mu    sync.Mutex
	rng   *rand.Rand
	first atomic.Bool
	dead  atomic.Bool
}

// draws takes n probability draws atomically with respect to other ops on
// this connection.
func (c *conn) draws(n int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, n)
	for i := range out {
		out[i] = c.rng.Float64()
	}
	return out
}

// intn draws a bounded int (used to pick the corrupted byte).
func (c *conn) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// abort severs the connection immediately. On TCP, SetLinger(0) turns the
// close into an RST so the peer sees a genuine connection reset rather
// than a graceful EOF.
func (c *conn) abort() {
	c.dead.Store(true)
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

func (c *conn) slowStart() {
	if c.in.sc.SlowStart > 0 && c.first.CompareAndSwap(true, false) {
		c.in.slowStarts.Add(1)
		time.Sleep(c.in.sc.SlowStart)
	}
}

func (c *conn) Read(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, fmt.Errorf("%w: connection reset", ErrInjected)
	}
	c.slowStart()
	d := c.draws(2)
	if d[0] < c.in.sc.ResetProb {
		c.in.resets.Add(1)
		c.abort()
		return 0, fmt.Errorf("%w: connection reset", ErrInjected)
	}
	if d[1] < c.in.sc.StallProb {
		c.in.stalls.Add(1)
		time.Sleep(c.in.sc.StallFor)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, fmt.Errorf("%w: connection reset", ErrInjected)
	}
	c.slowStart()
	d := c.draws(4)
	if d[0] < c.in.sc.ResetProb {
		c.in.resets.Add(1)
		c.abort()
		return 0, fmt.Errorf("%w: connection reset", ErrInjected)
	}
	if d[1] < c.in.sc.StallProb {
		c.in.stalls.Add(1)
		time.Sleep(c.in.sc.StallFor)
	}
	if d[2] < c.in.sc.PartialWriteProb && len(p) > 1 {
		c.in.partials.Add(1)
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.abort()
		return n, fmt.Errorf("%w: partial write then reset", ErrInjected)
	}
	if d[3] < c.in.sc.CorruptProb && len(p) > 0 {
		c.in.corruptions.Add(1)
		corrupt := make([]byte, len(p))
		copy(corrupt, p)
		corrupt[c.intn(len(corrupt))] ^= 0xFF
		return c.Conn.Write(corrupt)
	}
	return c.Conn.Write(p)
}
