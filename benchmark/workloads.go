package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/obs"
	"ddstore/internal/obs/tracectx"
	"ddstore/internal/serveboot"
	"ddstore/internal/transport"
)

// workload is one traffic mix against one way of serving the data. Sizes
// are fixed; the sample ids are the only thing the seed changes.
type workload struct {
	name string
	why  string
	// gated is true for the workloads BENCHMARK.json lists, which the driver
	// runs and holds to the bounds; the others run by hand (README).
	gated bool
	// dataset and n name the data the workload serves (and the oracle
	// regenerates).
	dataset string
	n       int
	// floodPerSec, when set, is the rate of the workload's flood client.
	floodPerSec float64
	// ranks is true when the workers are training ranks: PlaneLoader
	// batches that are materialised.
	ranks bool
	// tcp is false for the in-process RMA plane, which has no sockets.
	tcp  bool
	boot func(wl *workload, o *oracle) (instance, error)
}

// instance is a booted workload: the servers, or the RMA world.
type instance interface {
	// dial connects the workload's clients. With kit non-nil they are
	// traced: spans, counters and the counting dialer are switched on.
	dial(seed uint64, kit *traceKit) (*clients, error)
	counts() serverCounts
	close() error
}

// churner is an instance with a control plane that runs beside the reads.
type churner interface {
	// churn reshards on a fixed schedule until stop is closed.
	churn(stop <-chan struct{}) churnStats
}

type churnStats struct {
	reshards int
	total    time.Duration
	failed   int
}

// serverCounts are the server-side counters the per-layer metrics are
// deltas of.
type serverCounts struct {
	cacheHits, cacheMisses int64
	admitted, shed         int64
	generation             uint64
	chunksMoved            int64
	migrationBytes         float64
}

const numWorkers = 2

var workloads = []*workload{
	{
		name: "train_shuffle", gated: true,
		why:     "globally shuffled 64-sample batches from 4 owners: fetch fan-out, batch framing, vectored write and lazy decode do the work; cache and front end do nothing",
		dataset: "homolumo", n: 50000, tcp: true, ranks: true,
		boot: func(wl *workload, o *oracle) (instance, error) { return bootCluster(wl, 4, 64, false) },
	},
	{
		name: "lookup_closed", gated: true,
		why:     "single gets back to back on 2 connections: the smallest message, so frame, CRC, front-end admit and loopback RTT are everything; the fetch engine and the caches are bypassed",
		dataset: "homolumo", n: 20000, tcp: true,
		boot: func(wl *workload, o *oracle) (instance, error) {
			return bootStatic(wl, []serveboot.Config{{Tenants: "alpha", Hi: -1}}, func(si *staticInstance, seed uint64, kit *traceKit) (*clients, error) {
				return si.dialGets(seed, kit, "alpha", numWorkers)
			})
		},
	},
	{
		name: "cache_zipf", gated: true,
		why:     "Zipf(1.1) re-reads past cache capacity on client and server: claim, evict, coalesce, duplicate ids in a batch and the lazy miss path do the work",
		dataset: "homolumo", n: 50000, tcp: true,
		boot: func(wl *workload, o *oracle) (instance, error) {
			half := int64(wl.n / 2)
			return bootStatic(wl, []serveboot.Config{
				{Lo: 0, Hi: half, CacheBytes: o.rangeBytes(0, half) / 4},
				{Lo: half, Hi: int64(wl.n), CacheBytes: o.rangeBytes(half, int64(wl.n)) / 4},
			}, func(si *staticInstance, seed uint64, kit *traceKit) (*clients, error) {
				return si.dialZipf(seed, kit, o.total/10)
			})
		},
	},
	{
		name:    "reshard_churn",
		why:     "train_shuffle traffic while the cluster reshards 2 to 3 to 2 owners once a second: migration pulls share the servers and each publish forces a stale-generation refresh",
		dataset: "homolumo", n: 50000, tcp: true, ranks: true,
		boot: func(wl *workload, o *oracle) (instance, error) { return bootCluster(wl, 2, 64, true) },
	},
	{
		name:    "overload_two_tenant",
		why:     "a polite tenant's single gets beside a hostile tenant sending batches at 5x its quota: token buckets, class queues, weighted round-robin and the overloaded status do the work",
		dataset: "homolumo", n: 20000, tcp: true, floodPerSec: 10000,
		boot: func(wl *workload, o *oracle) (instance, error) {
			return bootStatic(wl, []serveboot.Config{{
				Tenants: "polite;hostile:rate=2000,burst=200", QueueDepth: 16, FrontendWorkers: 2, Hi: -1,
			}}, func(si *staticInstance, seed uint64, kit *traceKit) (*clients, error) {
				cl, err := si.dialGets(seed, kit, "polite", 1)
				if err != nil {
					return nil, err
				}
				return si.addFlood(cl, seed, kit)
			})
		},
	},
	{
		name: "rma_inproc", gated: true,
		why:     "the paper's own plane: the fetch engine over in-process RMA windows with local bypass and no sockets, on samples 7x larger, so an engine or decode gain shows undiluted",
		dataset: "ising", n: 10000, ranks: true,
		boot: bootRMA,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

var errWrongBytes = errors.New("benchmark: sample differs from the oracle")

// rangeIDs is the id sequence 0..n-1 as a ddp.IDs view.
type rangeIDs int

func (r rangeIDs) Len() int       { return int(r) }
func (r rangeIDs) At(i int) int64 { return int64(i) }

// batchWorker is one training rank: a globally shuffled batch through
// ddp.PlaneLoader, every view checked, materialised and assembled into a
// graph.Batch.
type batchWorker struct {
	loader  *ddp.PlaneLoader
	sampler *ddp.GlobalShuffleSampler
	step    int
	graphs  []*graph.Graph
}

func newBatchWorker(plane ddp.DataPlane, ring *obs.SpanRing, n int, seed uint64, rank, batch int) (*batchWorker, error) {
	s, err := ddp.NewGlobalShuffleSampler(rangeIDs(n), seed, numWorkers, rank, batch)
	if err != nil {
		return nil, err
	}
	return &batchWorker{
		loader:  &ddp.PlaneLoader{Plane: plane, Trace: ring != nil, Spans: ring},
		sampler: s,
	}, nil
}

func (w *batchWorker) next() []int64 {
	per := w.sampler.StepsPerEpoch()
	w.sampler.SetEpoch(w.step / per)
	ids, err := w.sampler.Batch(w.step % per)
	if err != nil {
		// Batch fails only before SetEpoch or past StepsPerEpoch.
		panic(err)
	}
	w.step++
	return ids
}

func (w *batchWorker) load(ids []int64, chk *checker, rt *reqTrace) (int, error) {
	if rt != nil {
		rt.loadStart = obs.EpochNow()
	}
	views, _, err := w.loader.LoadBatchLazy(ids)
	if rt != nil {
		rt.loadEnd = obs.EpochNow()
	}
	if err != nil {
		return 0, err
	}
	ok := true
	w.graphs = w.graphs[:0]
	for i, v := range views {
		ok = chk.lazy(ids[i], v) && ok
		w.graphs = append(w.graphs, v.Graph())
	}
	b, err := graph.NewBatch(w.graphs)
	if rt != nil {
		rt.matEnd = obs.EpochNow()
		rt.uniq = countUnique(ids)
	}
	switch {
	case err != nil:
		return 0, err
	case b.NumGraphs != len(ids):
		return 0, fmt.Errorf("benchmark: batch of %d graphs for %d ids", b.NumGraphs, len(ids))
	case !ok:
		return len(ids), errWrongBytes
	}
	return len(ids), nil
}

func countUnique(ids []int64) int {
	seen := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		seen[id] = struct{}{}
	}
	return len(seen)
}

// clusterInstance is an elastic serveboot.Cluster serving training ranks.
type clusterInstance struct {
	wl     *workload
	c      *serveboot.Cluster
	batch  int
	churns bool
}

func bootCluster(wl *workload, owners, batch int, churns bool) (instance, error) {
	c, err := serveboot.BootCluster(serveboot.ElasticConfig{Dataset: wl.dataset, N: wl.n, Owners: owners})
	if err != nil {
		return nil, err
	}
	return &clusterInstance{wl: wl, c: c, batch: batch, churns: churns}, nil
}

func (ci *clusterInstance) dial(seed uint64, kit *traceKit) (*clients, error) {
	cl := &clients{}
	var groups []*transport.Group
	cl.close = func() {
		for _, g := range groups {
			g.Close()
		}
	}
	for w := 0; w < numWorkers; w++ {
		var opts transport.GroupOptions
		opts.Client = kit.clientOptions(opts.Client)
		if kit != nil {
			opts.Spans = kit.ring(w)
		}
		// Each rank has a group of its own, as separate trainer processes
		// would; no client cache, so every sample crosses the wire.
		g, err := transport.NewElasticGroup(ci.c.Addrs(), opts)
		if err != nil {
			cl.close()
			return nil, err
		}
		groups = append(groups, g)
		bw, err := newBatchWorker(g, opts.Spans, ci.wl.n, seed, w, ci.batch)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.workers = append(cl.workers, bw)
	}
	return cl, nil
}

func (ci *clusterInstance) counts() serverCounts {
	reg := ci.c.Registry()
	sc := serverCounts{
		generation:  ci.c.Generation(),
		chunksMoved: obs.ShardMapChunksMovedCounter(reg).Value(),
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == obs.MetricMigrationBytes {
			sc.migrationBytes = h.Sum
		}
	}
	return sc
}

func (ci *clusterInstance) close() error { return ci.c.Close() }

// reshardEvery is the period of reshard_churn's control plane; the first
// reshard is half a period in.
const reshardEvery = time.Second

func (ci *clusterInstance) churn(stop <-chan struct{}) churnStats {
	var st churnStats
	if !ci.churns {
		<-stop
		return st
	}
	start := time.Now()
	for i := 0; ; i++ {
		timer := time.NewTimer(time.Until(start.Add(reshardEvery/2 + time.Duration(i)*reshardEvery)))
		select {
		case <-stop:
			timer.Stop()
			return st
		case <-timer.C:
		}
		target := 3 - i%2
		t := time.Now()
		if err := ci.c.Reshard(target); err != nil {
			st.failed++
		}
		st.reshards++
		st.total += time.Since(t)
	}
}

// staticInstance is one or more static serveboot.Boot servers.
type staticInstance struct {
	wl      *workload
	servers []*serveboot.Instance
	dialFn  func(si *staticInstance, seed uint64, kit *traceKit) (*clients, error)
}

func bootStatic(wl *workload, cfgs []serveboot.Config, dial func(*staticInstance, uint64, *traceKit) (*clients, error)) (instance, error) {
	si := &staticInstance{wl: wl, dialFn: dial}
	for _, cfg := range cfgs {
		cfg.Dataset, cfg.N = wl.dataset, wl.n
		s, err := serveboot.Boot(cfg)
		if err != nil {
			si.close()
			return nil, err
		}
		si.servers = append(si.servers, s)
	}
	return si, nil
}

func (si *staticInstance) dial(seed uint64, kit *traceKit) (*clients, error) {
	return si.dialFn(si, seed, kit)
}

func (si *staticInstance) counts() serverCounts {
	var sc serverCounts
	for _, s := range si.servers {
		if st, ok := s.CacheStats(); ok {
			sc.cacheHits += st.Hits
			sc.cacheMisses += st.Misses
		}
		if st, ok := s.FrontendStats(); ok {
			sc.admitted += st.AdmittedByClass[transport.ClassLookup] + st.AdmittedByClass[transport.ClassBulk]
			sc.shed += st.Shed
		}
	}
	return sc
}

func (si *staticInstance) close() error {
	var first error
	for _, s := range si.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// getWorker issues single gets of uniformly drawn ids on one connection.
type getWorker struct {
	cl  *transport.Client
	rng *rand.Rand
	n   int
	buf [1]int64
}

func (w *getWorker) next() []int64 {
	w.buf[0] = w.rng.Int63n(int64(w.n))
	return w.buf[:]
}

func (w *getWorker) load(ids []int64, chk *checker, rt *reqTrace) (int, error) {
	ok := true
	for _, id := range ids {
		var raw []byte
		var err error
		if rt != nil {
			rt.loadStart = obs.EpochNow()
			raw, rt.timing, err = w.cl.GetRawTraced(id, tracectx.New(true))
			rt.loadEnd = obs.EpochNow()
			rt.matEnd, rt.uniq = rt.loadEnd, 1
		} else {
			raw, err = w.cl.GetRaw(id)
		}
		if err != nil {
			return 0, err
		}
		ok = chk.raw(id, raw) && ok
	}
	if !ok {
		return len(ids), errWrongBytes
	}
	return len(ids), nil
}

// dialGets opens one connection per worker to the first server, each
// declaring tenant.
func (si *staticInstance) dialGets(seed uint64, kit *traceKit, tenant string, workers int) (*clients, error) {
	cl := &clients{}
	var conns []*transport.Client
	cl.close = func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for w := 0; w < workers; w++ {
		c, err := transport.DialOptions(si.servers[0].Addr(), kit.clientOptions(transport.ClientOptions{Tenant: tenant}))
		if err != nil {
			cl.close()
			return nil, err
		}
		conns = append(conns, c)
		cl.workers = append(cl.workers, &getWorker{cl: c, rng: rand.New(rand.NewSource(int64(seed)*numWorkers + int64(w))), n: si.wl.n})
	}
	return cl, nil
}

// floodWorker is the hostile tenant: batch gets with no retries, so a shed
// request returns at once.
type floodWorker struct {
	cl  *transport.Client
	rng *rand.Rand
	n   int
	buf [32]int64
}

func (w *floodWorker) next() []int64 {
	for i := range w.buf {
		w.buf[i] = w.rng.Int63n(int64(w.n))
	}
	return w.buf[:]
}

func (w *floodWorker) load(ids []int64, chk *checker, _ *reqTrace) (int, error) {
	raws, err := w.cl.GetBatchRaw(ids)
	if err != nil {
		return 0, err
	}
	ok := true
	for i, raw := range raws {
		ok = chk.raw(ids[i], raw) && ok
	}
	if !ok {
		return len(ids), errWrongBytes
	}
	return len(ids), nil
}

func (si *staticInstance) addFlood(cl *clients, seed uint64, kit *traceKit) (*clients, error) {
	c, err := transport.DialOptions(si.servers[0].Addr(), kit.clientOptions(transport.ClientOptions{
		Tenant: "hostile", Policy: transport.RetryPolicy{MaxAttempts: 1},
	}))
	if err != nil {
		cl.close()
		return nil, err
	}
	closeWorkers := cl.close
	cl.close = func() { closeWorkers(); c.Close() }
	cl.flood = &floodWorker{cl: c, rng: rand.New(rand.NewSource(^int64(seed))), n: si.wl.n}
	return cl, nil
}

// zipfWorker loads batches of 32 ids drawn Zipf(1.1) through a seeded
// permutation from a group it shares with the other worker, and releases
// the views unmaterialised.
type zipfWorker struct {
	g    *transport.Group
	zipf *rand.Zipf
	perm ddp.Permutation
	buf  [32]int64
}

func (w *zipfWorker) next() []int64 {
	for i := range w.buf {
		w.buf[i] = w.perm.Apply(int64(w.zipf.Uint64()))
	}
	return w.buf[:]
}

func (w *zipfWorker) load(ids []int64, chk *checker, rt *reqTrace) (int, error) {
	var views []*graph.Lazy
	var err error
	if rt != nil {
		tc := tracectx.New(true)
		rt.traceID = tc.TraceID
		rt.loadStart = obs.EpochNow()
		views, _, err = w.g.LoadLazyTraced(ids, tc)
		rt.loadEnd = obs.EpochNow()
		rt.matEnd, rt.uniq = rt.loadEnd, countUnique(ids)
	} else {
		views, _, err = w.g.LoadLazy(ids)
	}
	if err != nil {
		return 0, err
	}
	ok := true
	for i, v := range views {
		ok = chk.lazy(ids[i], v) && ok
		v.Release()
	}
	if !ok {
		return len(ids), errWrongBytes
	}
	return len(ids), nil
}

func (si *staticInstance) dialZipf(seed uint64, kit *traceKit, cacheBytes int64) (*clients, error) {
	opts := transport.GroupOptions{CacheBytes: cacheBytes}
	if kit != nil {
		opts.Client = kit.clientOptions(opts.Client)
		workers := make([]int, numWorkers)
		for w := range workers {
			workers[w] = w
		}
		opts.Spans = kit.ring(workers...)
	}
	addrs := make([]string, len(si.servers))
	for i, s := range si.servers {
		addrs[i] = s.Addr()
	}
	g, err := transport.NewGroupReplicas([][]string{addrs}, opts)
	if err != nil {
		return nil, err
	}
	cl := &clients{close: g.Close, cacheStats: g.CacheStats}
	for w := 0; w < numWorkers; w++ {
		rng := rand.New(rand.NewSource(int64(seed)*numWorkers + int64(w)))
		cl.workers = append(cl.workers, &zipfWorker{
			g:    g,
			zipf: rand.NewZipf(rng, 1.1, 1, uint64(si.wl.n-1)),
			perm: ddp.NewPermutation(int64(si.wl.n), seed),
		})
	}
	return cl, nil
}

// rmaInstance is a comm.World of two ranks with a core.Store open on each.
// The rank goroutines stay parked inside World.Run while the workers drive
// the stores, and close the stores when released.
type rmaInstance struct {
	wl      *workload
	stores  []*core.Store
	release chan struct{}
	done    chan error
}

func bootRMA(wl *workload, _ *oracle) (instance, error) {
	src, err := newDataset(wl.dataset, wl.n)
	if err != nil {
		return nil, err
	}
	world, err := comm.NewWorld(numWorkers, 1)
	if err != nil {
		return nil, err
	}
	ri := &rmaInstance{wl: wl, stores: make([]*core.Store, numWorkers), release: make(chan struct{}), done: make(chan error, 1)}
	var opened sync.WaitGroup
	opened.Add(numWorkers)
	openErrs := make([]error, numWorkers)
	go func() {
		ri.done <- world.Run(func(c *comm.Comm) error {
			st, err := core.Open(c, src, core.Options{Width: numWorkers})
			ri.stores[c.Rank()], openErrs[c.Rank()] = st, err
			opened.Done()
			if err != nil {
				return err
			}
			<-ri.release
			return st.Close()
		})
	}()
	opened.Wait()
	for _, err := range openErrs {
		if err != nil {
			close(ri.release)
			<-ri.done
			return nil, err
		}
	}
	return ri, nil
}

func (ri *rmaInstance) dial(seed uint64, _ *traceKit) (*clients, error) {
	cl := &clients{close: func() {}}
	for w, st := range ri.stores {
		// The engine's spans run on the world's virtual clock, which does
		// not advance without a machine model, so no ring is attached: the
		// benchmark's own span around the load is the measurement here.
		bw, err := newBatchWorker(st, nil, ri.wl.n, seed, w, 64)
		if err != nil {
			return nil, err
		}
		cl.workers = append(cl.workers, bw)
	}
	return cl, nil
}

func (ri *rmaInstance) counts() serverCounts { return serverCounts{} }

func (ri *rmaInstance) close() error {
	close(ri.release)
	return <-ri.done
}
