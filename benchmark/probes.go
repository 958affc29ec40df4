package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"ddstore/internal/bufarena"
	"ddstore/internal/cache"
	"ddstore/internal/comm"
	"ddstore/internal/frontend"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/shardmap"
	"ddstore/internal/transport"
)

// A probe times one exported call of one layer in isolation: a fixed number
// of iterations, repeated, reported as the median time per call with the
// allocations per call. Probes say what a layer costs on this host with
// nothing else in the way; the traced pass says what it costs in a request.

const probeReps = 5

type probeResult struct {
	perOp  time.Duration
	allocs float64
}

// probe runs fn(iters) probeReps times and keeps the median time per
// iteration.
func probe(iters int, fn func(n int)) probeResult {
	fn(iters / 10) // warm pools, caches and connections
	per := make([]time.Duration, probeReps)
	var allocs float64
	for r := range per {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		fn(iters)
		per[r] = time.Since(t) / time.Duration(iters)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return probeResult{perOp: per[probeReps/2], allocs: allocs}
}

// probeSamples is the data every probe works on: the first 256 samples of
// the homolumo dataset, encoded.
type probeSamples struct {
	graphs  []*graph.Graph
	encoded [][]byte
}

func newProbeSamples() (*probeSamples, error) {
	d, err := newDataset("homolumo", 256)
	if err != nil {
		return nil, err
	}
	ps := &probeSamples{}
	for id := int64(0); id < 256; id++ {
		g, err := d.Sample(id)
		if err != nil {
			return nil, err
		}
		ps.graphs = append(ps.graphs, g)
		ps.encoded = append(ps.encoded, g.Encode())
	}
	return ps, nil
}

// runProbes returns every probe metric by name.
func runProbes() (map[string]probeResult, error) {
	ps, err := newProbeSamples()
	if err != nil {
		return nil, err
	}
	out := map[string]probeResult{}

	// cache: a hit that hands out a buffer reference, and an insert into a
	// full cache that evicts one.
	{
		c := cache.New(cache.Options{MaxBytes: 1 << 20, Shards: 1})
		for id, b := range ps.encoded[:64] {
			c.PutRef(int64(id), b, nil)
		}
		out["cache.probe_claim_hit_ns"] = probe(100000, func(n int) {
			for i := 0; i < n; i++ {
				_, ref, f := c.ClaimRef(int64(i & 63))
				if f != nil {
					panic("benchmark: cache probe missed")
				}
				if ref != nil {
					ref.Release()
				}
			}
		})
		small := cache.New(cache.Options{MaxBytes: int64(8 * len(ps.encoded[0])), Shards: 1})
		out["cache.probe_put_evict_ns"] = probe(50000, func(n int) {
			for i := 0; i < n; i++ {
				small.PutRef(int64(i), ps.encoded[0], nil)
			}
		})
	}

	// transport: a bare server over an in-memory chunk, no front end, no
	// shard map, one connection.
	{
		srv, err := transport.Serve("127.0.0.1:0", transport.NewMemChunk(0, ps.graphs))
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		cl, err := transport.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		var perr error
		out["transport.probe_get_us"] = probe(3000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				_, perr = cl.GetRaw(int64(i & 255))
			}
		})
		ids := make([]int64, 64)
		out["transport.probe_batch64_us"] = probe(500, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				for j := range ids {
					ids[j] = int64((i + 3*j) & 255)
				}
				var buf *bufarena.Buf
				if buf, _, perr = cl.GetBatchBufs(ids); perr == nil {
					buf.Release()
				}
			}
		})
		pool := transport.NewClientPool(transport.ClientOptions{})
		defer pool.Close()
		out["transport.probe_pool_getput_ns"] = probe(20000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				var c *transport.Client
				if c, perr = pool.Get(srv.Addr()); perr == nil {
					pool.Put(c)
				}
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("benchmark: transport probe: %w", perr)
		}
	}

	// frontend: admit and release one unlimited tenant's lookup with idle
	// workers, so nothing queues.
	{
		fe, err := frontend.New(frontend.Options{Tenants: []frontend.TenantConfig{{Name: "alpha"}}})
		if err != nil {
			return nil, err
		}
		defer fe.Close()
		gate, err := fe.AdmitConn("probe")
		if err != nil {
			return nil, err
		}
		defer gate.Close()
		if err := gate.Hello("alpha"); err != nil {
			return nil, err
		}
		var perr error
		out["frontend.probe_admit_ns"] = probe(50000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				var release func(int64)
				if release, perr = gate.Admit(transport.ClassLookup); perr == nil {
					release(1400)
				}
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("benchmark: frontend probe: %w", perr)
		}
	}

	// shardmap: resolve an owner in a 4-member map, and plan 2 → 3 members.
	{
		members := []shardmap.Member{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}, {ID: "c", Addr: "c:1"}, {ID: "d", Addr: "d:1"}}
		m4, err := shardmap.Uniform(0, 50000, members, shardmap.UniformOptions{})
		if err != nil {
			return nil, err
		}
		var perr error
		out["shardmap.probe_owner_of_ns"] = probe(200000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				_, perr = m4.PreferredOwner(int64(i*7919) % 50000)
			}
		})
		m2, err := shardmap.Uniform(0, 50000, members[:2], shardmap.UniformOptions{})
		if err != nil {
			return nil, err
		}
		out["shardmap.probe_plan_us"] = probe(2000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				_, _, perr = shardmap.Planner{}.Next(m2, members[:3])
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("benchmark: shardmap probe: %w", perr)
		}
	}

	out["bufarena.probe_get_release_ns"] = probe(100000, func(n int) {
		for i := 0; i < n; i++ {
			bufarena.Get(1400).Release()
		}
	})

	// graph: validate a header, materialise the tensors, assemble a batch.
	{
		var perr error
		out["graph.probe_decode_lazy_ns"] = probe(100000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				_, perr = graph.DecodeLazy(ps.encoded[i&255], nil)
			}
		})
		out["graph.probe_materialize_ns"] = probe(20000, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				var l *graph.Lazy
				if l, perr = graph.DecodeLazy(ps.encoded[i&255], nil); perr == nil {
					l.Graph()
				}
			}
		})
		out["graph.probe_new_batch64_us"] = probe(500, func(n int) {
			for i := 0; i < n && perr == nil; i++ {
				_, perr = graph.NewBatch(ps.graphs[:64])
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("benchmark: graph probe: %w", perr)
		}
	}

	// comm: a one-sided Get of 10 KB from the other rank's window inside a
	// shared-lock epoch, as the RMA plane issues it per sample.
	{
		world, err := comm.NewWorld(2, 1)
		if err != nil {
			return nil, err
		}
		err = world.Run(func(c *comm.Comm) error {
			win, err := c.CreateWindow(make([]byte, 1<<20))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				dst := make([]byte, 10<<10)
				var perr error
				out["comm.probe_rma_get_10k_ns"] = probe(100000, func(n int) {
					if perr = win.LockShared(1); perr != nil {
						return
					}
					for i := 0; i < n && perr == nil; i++ {
						perr = win.Get(dst, 1, (i&63)<<14)
					}
					if uerr := win.Unlock(1); perr == nil {
						perr = uerr
					}
				})
				if perr != nil {
					return perr
				}
			}
			return c.Barrier()
		})
		if err != nil {
			return nil, fmt.Errorf("benchmark: comm probe: %w", err)
		}
	}

	// obs: record one span into a ring, bump one registry counter.
	{
		ring := obs.NewSpanRing(1<<12, 0)
		out["obs.probe_span_record_ns"] = probe(100000, func(n int) {
			for i := 0; i < n; i++ {
				ring.Record(obs.Span{Name: "probe", Cat: "bench", Owner: -1, Start: time.Duration(i), Dur: 1})
			}
		})
		ctr := obs.NewRegistry().Counter("benchmark_probe_total")
		out["obs.probe_counter_inc_ns"] = probe(200000, func(n int) {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
		})
	}
	return out, nil
}

// ceilings are what the host can do with none of the program in the way:
// a raw loopback TCP echo of the same shape as a single get (16 bytes out,
// 1.4 KB back), and memcpy bandwidth.
type ceilings struct {
	tcpEcho    time.Duration
	memcpyGBps float64
}

func measureCeilings() (ceilings, error) {
	var c ceilings
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	defer ln.Close()
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, resp := make([]byte, 16), make([]byte, 1400)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				return
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return c, err
	}
	req, resp := make([]byte, 16), make([]byte, 1400)
	var perr error
	c.tcpEcho = probe(5000, func(n int) {
		for i := 0; i < n && perr == nil; i++ {
			if _, perr = conn.Write(req); perr == nil {
				_, perr = io.ReadFull(conn, resp)
			}
		}
	}).perOp
	conn.Close()
	<-srvDone
	if perr != nil {
		return c, fmt.Errorf("benchmark: tcp echo: %w", perr)
	}

	src, dst := make([]byte, 16<<20), make([]byte, 16<<20)
	per := probe(20, func(n int) {
		for i := 0; i < n; i++ {
			copy(dst, src)
		}
	}).perOp
	c.memcpyGBps = float64(len(src)) / per.Seconds() / 1e9
	return c, nil
}
