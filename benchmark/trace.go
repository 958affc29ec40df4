package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// traceKit is what a traced set of clients is built with: span rings for
// the program's own spans, a counter sink for the client's resilience
// events, and a dialer that counts what crosses each connection. Nothing in
// the program is edited; these are its existing hooks.
type traceKit struct {
	rings []*obs.SpanRing
	// ringWorkers lists, per ring, the workers whose requests record into
	// it (one for a per-worker ring, all of them for a shared group).
	ringWorkers [][]int
	net         netCounters
	wire        wireCounts
}

// ringCap holds one worker's traced pass (maxTracedPass) without
// overwriting: about 13 spans per 4-owner batch at a thousand batches a
// second, 7 per cached batch at three thousand.
const ringCap = 1 << 18

// ring returns a new span ring that the given workers' requests record into.
func (k *traceKit) ring(workers ...int) *obs.SpanRing {
	r := obs.NewSpanRing(ringCap*len(workers), len(k.rings))
	k.rings = append(k.rings, r)
	k.ringWorkers = append(k.ringWorkers, workers)
	return r
}

// clientOptions returns opts with the kit's hooks and tracing switched on;
// a nil kit (an untraced run) leaves opts alone.
func (k *traceKit) clientOptions(opts transport.ClientOptions) transport.ClientOptions {
	if k == nil {
		return opts
	}
	opts.Tracing = true
	opts.Counters = &k.net
	opts.Dialer = k.wire.dial
	return opts
}

// netCounters is the transport.Counters sink.
type netCounters struct {
	roundTrips, retries, reconnects, giveUps, overloads, staleRefreshes atomic.Int64
}

// netCounts is a reading of netCounters.
type netCounts struct {
	roundTrips, retries, reconnects, giveUps, overloads, staleRefreshes int64
}

func (c *netCounters) snapshot() netCounts {
	return netCounts{
		roundTrips: c.roundTrips.Load(), retries: c.retries.Load(), reconnects: c.reconnects.Load(),
		giveUps: c.giveUps.Load(), overloads: c.overloads.Load(), staleRefreshes: c.staleRefreshes.Load(),
	}
}

func (c *netCounters) Inc(name string, delta int64) {
	switch name {
	case transport.CounterRoundTrips:
		c.roundTrips.Add(delta)
	case transport.CounterRetries:
		c.retries.Add(delta)
	case transport.CounterReconnects:
		c.reconnects.Add(delta)
	case transport.CounterGiveUps:
		c.giveUps.Add(delta)
	case transport.CounterOverloads:
		c.overloads.Add(delta)
	case transport.CounterStaleRefreshes:
		c.staleRefreshes.Add(delta)
	}
}

// wireCounts counts the Read and Write calls and the bytes on every
// connection its dialer opens.
type wireCounts struct {
	ops, bytes atomic.Int64
}

func (w *wireCounts) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, w: w}, nil
}

type countedConn struct {
	net.Conn
	w *wireCounts
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.ops.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.ops.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

// layerTimes is what the traced pass says about where a request's time
// went. Every slice is in microseconds.
type layerTimes struct {
	latency           []float64 // per request
	load, materialize []float64 // per request: the benchmark's spans
	fetchLoad         []float64 // per request: the engine's load
	fetchSelf         []float64 // per request: load minus the union of owner spans
	owner             []float64 // per fetch-owner span
	straggler         []float64 // per load with two owners or more
	rtt               []float64 // per owner fetch that carried a server trailer
	queueWait         []float64 // per server request
	service           []float64 // per server request, queue wait excluded
	source            []float64 // per server request
	// cp* are each request's share of its critical path: parallel owner
	// fetches overlap, so their parts are scaled by union/sum before they
	// are added into the budget.
	cpRTT, cpQueue, cpService []float64
	requests                  int
	dropped                   int64
}

// analyse attributes the program's spans to the benchmark's requests and
// splits each request's latency into layer times.
func analyse(kit *traceKit, traces [][]reqTrace) *layerTimes {
	lt := &layerTimes{}
	byTrace := map[uint64]*reqSpans{}
	perWorker := make([][]*reqSpans, len(traces))
	for w, ts := range traces {
		perWorker[w] = make([]*reqSpans, len(ts))
		for i := range ts {
			rs := &reqSpans{rt: &ts[i]}
			perWorker[w][i] = rs
			if ts[i].traceID != 0 {
				byTrace[ts[i].traceID] = rs
			}
		}
	}
	for ri, ring := range kit.rings {
		lt.dropped += ring.Dropped()
		workers := kit.ringWorkers[ri]
		for _, s := range ring.Spans() {
			rs := byTrace[s.TraceID]
			if rs == nil && len(workers) == 1 {
				rs = containing(perWorker[workers[0]], s.Start)
			}
			if rs != nil {
				rs.spans = append(rs.spans, s)
			}
		}
	}
	for _, reqs := range perWorker {
		for _, rs := range reqs {
			rt := rs.rt
			lt.requests++
			lt.latency = append(lt.latency, us(rt.end-rt.sent))
			lt.load = append(lt.load, us(rt.loadEnd-rt.loadStart))
			lt.materialize = append(lt.materialize, us(rt.matEnd-rt.loadEnd))
			if rt.timing != nil {
				// A direct client call: the trailer came back with it.
				call := rt.loadEnd - rt.loadStart
				lt.rtt = append(lt.rtt, us(call-rt.timing.Service))
				lt.queueWait = append(lt.queueWait, us(rt.timing.QueueWait))
				lt.service = append(lt.service, us(rt.timing.Service-rt.timing.QueueWait))
				lt.source = append(lt.source, us(rt.timing.Source))
				lt.cpRTT = append(lt.cpRTT, us(call-rt.timing.Service))
				lt.cpQueue = append(lt.cpQueue, us(rt.timing.QueueWait))
				lt.cpService = append(lt.cpService, us(rt.timing.Service-rt.timing.QueueWait))
				continue
			}
			rs.split(lt)
		}
	}
	return lt
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// reqSpans is one request with the program spans attributed to it.
type reqSpans struct {
	rt    *reqTrace
	spans []obs.Span
}

// containing returns the request whose [sent, end] holds t; reqs are one
// worker's requests, in order.
func containing(reqs []*reqSpans, t time.Duration) *reqSpans {
	i := sort.Search(len(reqs), func(i int) bool { return reqs[i].rt.end >= t })
	if i < len(reqs) && reqs[i].rt.sent <= t {
		return reqs[i]
	}
	return nil
}

// split turns one engine load's spans into layer times.
func (rs *reqSpans) split(lt *layerTimes) {
	load := interval{int64(rs.rt.loadStart), int64(rs.rt.loadEnd)}
	var owners []obs.Span
	serverOf := map[uint64]*serverParts{} // by fetch-owner span id
	requestOf := map[uint64]*serverParts{}
	for _, s := range rs.spans {
		switch s.Name {
		case "load-batch":
			load = interval{int64(s.Start), int64(s.Start + s.Dur)}
		case "fetch-owner":
			owners = append(owners, s)
		case "server-request":
			sp := serverOf[s.ParentID]
			if sp == nil {
				sp = &serverParts{}
				serverOf[s.ParentID] = sp
			}
			sp.total += s.Dur
			sp.requests++
			requestOf[s.SpanID] = sp
		}
	}
	for _, s := range rs.spans {
		sp := requestOf[s.ParentID]
		if sp == nil {
			continue
		}
		switch s.Name {
		case "server-queue-wait":
			sp.queue += s.Dur
		case "server-chunk-source":
			sp.source += s.Dur
		}
	}
	lt.fetchLoad = append(lt.fetchLoad, us(time.Duration(load.hi-load.lo)))
	if len(owners) == 0 {
		// No owner span landed in the request: a batch served from cache
		// alone, or a plane whose spans carry no wall-clock time.
		lt.fetchSelf = append(lt.fetchSelf, us(time.Duration(load.hi-load.lo)))
		lt.cpRTT = append(lt.cpRTT, 0)
		lt.cpQueue = append(lt.cpQueue, 0)
		lt.cpService = append(lt.cpService, 0)
		return
	}
	ivs := make([]interval, len(owners))
	var sum, slowest time.Duration
	var rtt, queue, service time.Duration
	for i, o := range owners {
		ivs[i] = interval{int64(o.Start), int64(o.Start + o.Dur)}
		sum += o.Dur
		if o.Dur > slowest {
			slowest = o.Dur
		}
		lt.owner = append(lt.owner, us(o.Dur))
		if sp := serverOf[o.SpanID]; sp != nil {
			lt.rtt = append(lt.rtt, us(o.Dur-sp.total))
			n := time.Duration(sp.requests)
			lt.queueWait = append(lt.queueWait, us(sp.queue/n))
			lt.service = append(lt.service, us((sp.total-sp.queue)/n))
			lt.source = append(lt.source, us(sp.source/n))
			rtt += o.Dur - sp.total
			queue += sp.queue
			service += sp.total - sp.queue
		} else {
			rtt += o.Dur
		}
	}
	self := selfTime(load, ivs)
	lt.fetchSelf = append(lt.fetchSelf, us(time.Duration(self)))
	if len(owners) > 1 {
		lt.straggler = append(lt.straggler, float64(slowest)*float64(len(owners))/float64(sum))
	}
	union := float64(load.hi-load.lo-self) / float64(sum)
	lt.cpRTT = append(lt.cpRTT, us(rtt)*union)
	lt.cpQueue = append(lt.cpQueue, us(queue)*union)
	lt.cpService = append(lt.cpService, us(service)*union)
}

type serverParts struct {
	total, queue, source time.Duration
	requests             int
}

// residualFrac is the share of the mean request latency that the layer
// times do not explain.
func (lt *layerTimes) residualFrac() float64 {
	mean := meanOf(lt.latency)
	if mean == 0 {
		return 0
	}
	parts := meanOf(lt.materialize) + meanOf(lt.fetchSelf) +
		meanOf(lt.cpRTT) + meanOf(lt.cpQueue) + meanOf(lt.cpService)
	return (mean - parts) / mean
}

// chromeTail is how much of the traced pass the Chrome trace file keeps: the
// whole pass is a quarter of a million spans, the tail is enough to look at.
const chromeTail = 500 * time.Millisecond

// writeChromeTrace writes the last chromeTail of the traced pass —
// the benchmark's spans beside the program's — as a Chrome trace.
func writeChromeTrace(path string, kit *traceKit, traces [][]reqTrace) error {
	var last time.Duration
	for _, ts := range traces {
		if n := len(ts); n > 0 && ts[n-1].end > last {
			last = ts[n-1].end
		}
	}
	from := last - chromeTail
	var rings []*obs.SpanRing
	for w, ts := range traces {
		ring := obs.NewSpanRing(4*len(ts)+1, w)
		ring.SetLabel(fmt.Sprintf("benchmark worker %d", w))
		for _, rt := range ts {
			if rt.sent < from {
				continue
			}
			ring.Record(obs.Span{Name: "request", Cat: "bench", Owner: -1, Samples: rt.samples, Start: rt.sent, Dur: rt.end - rt.sent})
			ring.Record(obs.Span{Name: "load", Cat: "bench", Owner: -1, Start: rt.loadStart, Dur: rt.loadEnd - rt.loadStart})
			if rt.matEnd > rt.loadEnd {
				ring.Record(obs.Span{Name: "materialize", Cat: "bench", Owner: -1, Start: rt.loadEnd, Dur: rt.matEnd - rt.loadEnd})
			}
		}
		rings = append(rings, ring)
	}
	for i, r := range kit.rings {
		ring := obs.NewSpanRing(r.Len()+1, len(traces)+i)
		ring.SetLabel(fmt.Sprintf("program ring %d", i))
		for _, s := range r.Spans() {
			if s.Start >= from {
				ring.Record(s)
			}
		}
		rings = append(rings, ring)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rings...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
