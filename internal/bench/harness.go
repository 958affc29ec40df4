package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ddstore/internal/cff"
	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/hydra"
	"ddstore/internal/obs"
	"ddstore/internal/pff"
	"ddstore/internal/pfs"
	"ddstore/internal/stats"
	"ddstore/internal/trace"
)

// Method selects the data management backend under test.
type Method string

// The three data management methodologies the paper compares (§4.3).
const (
	MethodPFF     Method = "PFF"
	MethodCFF     Method = "CFF"
	MethodDDStore Method = "DDStore"
)

// AllMethods lists the comparison order used in the paper's figures.
var AllMethods = []Method{MethodPFF, MethodCFF, MethodDDStore}

// cffParts is the container subfile count used by the CFF baseline; a few
// large containers is the ADIOS-style layout the paper describes.
const cffParts = 6

// dsKind identifies the four evaluation datasets.
type dsKind int

const (
	dsIsing dsKind = iota
	dsHomoLumo
	dsDiscrete
	dsSmooth
)

func (k dsKind) String() string {
	switch k {
	case dsIsing:
		return "Ising"
	case dsHomoLumo:
		return "AISD HOMO-LUMO"
	case dsDiscrete:
		return "AISD-Ex (Discrete)"
	case dsSmooth:
		return "AISD-Ex (Smooth)"
	default:
		return fmt.Sprintf("dsKind(%d)", int(k))
	}
}

// allKinds is the dataset order of the paper's figures.
var allKinds = []dsKind{dsIsing, dsHomoLumo, dsDiscrete, dsSmooth}

// datasetCache memoizes generated datasets and their per-sample sizes so
// repeated experiments do not regenerate hundreds of thousands of samples.
var datasetCache = struct {
	sync.Mutex
	ds    map[string]*datasets.Dataset
	sizes map[string][]int64
}{ds: map[string]*datasets.Dataset{}, sizes: map[string][]int64{}}

func datasetFor(kind dsKind, numGraphs, bins int) *datasets.Dataset {
	key := fmt.Sprintf("%d/%d/%d", kind, numGraphs, bins)
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if ds, ok := datasetCache.ds[key]; ok {
		return ds
	}
	cfg := datasets.Config{NumGraphs: numGraphs, SpectrumBins: bins}
	var ds *datasets.Dataset
	switch kind {
	case dsIsing:
		ds = datasets.Ising(cfg)
	case dsHomoLumo:
		ds = datasets.HomoLumo(cfg)
	case dsDiscrete:
		ds = datasets.AISDExDiscrete(cfg)
	case dsSmooth:
		ds = datasets.AISDExSmooth(cfg)
	}
	// Materialize eagerly: the at-scale runs would otherwise regenerate
	// hundreds of thousands of samples per configuration, and on a
	// single-core box the resulting allocation storm costs more (GC
	// fighting the simulation for the CPU, RSS ballooning with garbage)
	// than the ~1 GB of stable resident graphs per large dataset. The
	// ddstore-bench driver drops the cache between experiment groups.
	ds.EnableCache()
	datasetCache.ds[key] = ds
	return ds
}

// ResetCaches drops the dataset, size, and run memoization caches and
// returns freed memory to the OS. The ddstore-bench driver calls it between
// experiments so the full suite's peak memory stays bounded.
func ResetCaches() {
	datasetCache.Lock()
	datasetCache.ds = map[string]*datasets.Dataset{}
	datasetCache.sizes = map[string][]int64{}
	datasetCache.Unlock()
	runCache.Lock()
	runCache.m = map[string]*runOut{}
	runCache.Unlock()
	runtime.GC()
	debug.FreeOSMemory()
}

func sizesFor(ds *datasets.Dataset) ([]int64, error) {
	key := fmt.Sprintf("%s/%d/%d", ds.Name(), ds.Len(), ds.OutputDim())
	datasetCache.Lock()
	if s, ok := datasetCache.sizes[key]; ok {
		datasetCache.Unlock()
		return s, nil
	}
	datasetCache.Unlock()
	s, err := pff.SampleSizes(ds)
	if err != nil {
		return nil, err
	}
	datasetCache.Lock()
	datasetCache.sizes[key] = s
	datasetCache.Unlock()
	return s, nil
}

// runSpec describes one simulated training run.
type runSpec struct {
	machine    *cluster.Machine
	ranks      int
	method     Method
	ds         *datasets.Dataset
	localBatch int
	epochs     int
	maxSteps   int
	width      int // DDStore only; 0 = default (single replica)
	seed       uint64
	keepLat    bool

	// DDStore design-ablation toggles (see core.Options).
	framework     core.Framework
	lockPerSample bool
	nonBlocking   bool

	// Remote-sample cache (filled in from Options by runCached unless the
	// experiment sets it explicitly).
	cacheBytes int64

	// Observability sinks (filled in from Options by runCached). They do
	// not affect the simulated outcome, so they are excluded from the run
	// memoization key — a memoized hit simply records nothing new.
	metrics   *obs.Registry
	traceSink *obs.TraceSink
}

// runOut is the aggregated outcome of one run.
type runOut struct {
	// MeanThroughput is global samples per virtual second over the run.
	MeanThroughput float64
	// EpochThroughputs, one per epoch, expose run variability.
	EpochThroughputs []float64
	// EpochDuration is the mean virtual epoch time.
	EpochDuration time.Duration
	// Prof merges every rank's region profile.
	Prof *trace.Profiler
	// Latencies concatenates per-sample load latencies from all ranks (only
	// if keepLat).
	Latencies []time.Duration
}

// runOne executes one simulated DDP training run and aggregates the
// outcome.
func runOne(spec runSpec) (*runOut, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	world, err := comm.NewWorld(spec.ranks, spec.seed, comm.WithMachine(spec.machine))
	if err != nil {
		return nil, err
	}

	var fs *pfs.PFS
	var sizes []int64
	var layout *cff.SimLayout
	switch spec.method {
	case MethodPFF:
		fs = pfs.New(spec.machine, spec.ranks)
		if sizes, err = sizesFor(spec.ds); err != nil {
			return nil, err
		}
		pff.RegisterSim(fs, spec.ds, sizes)
	case MethodCFF:
		fs = pfs.New(spec.machine, spec.ranks)
		if sizes, err = sizesFor(spec.ds); err != nil {
			return nil, err
		}
		if layout, err = cff.RegisterSim(fs, spec.ds, sizes, cffParts); err != nil {
			return nil, err
		}
	case MethodDDStore:
		// no filesystem: the preloader reads straight from the generator
		// source (the paper's preload also happens once and is excluded
		// from the steady-state comparison).
	default:
		return nil, fmt.Errorf("bench: unknown method %q", spec.method)
	}

	simModel := hydra.PaperConfig(spec.ds.NodeFeatDim(), spec.ds.EdgeFeatDim(), spec.ds.OutputDim())
	out := &runOut{Prof: trace.New()}
	var res *ddp.Result
	var mu sync.Mutex
	err = world.Run(func(c *comm.Comm) error {
		var loader ddp.Loader
		switch spec.method {
		case MethodPFF:
			loader = &ddp.SourceLoader{Source: pff.NewSim(fs, spec.ds, sizes, c.Clock(), c.RNG())}
		case MethodCFF:
			loader = &ddp.SourceLoader{Source: cff.NewSim(fs, spec.ds, layout, c.Clock(), c.RNG())}
		}
		prof := trace.New()
		var spans *obs.SpanRing
		if spec.traceSink != nil {
			spans = spec.traceSink.NewRing(fmt.Sprintf("%s %s x%d", spec.method, spec.machine.Name, spec.ranks), c.Rank())
		}
		if spec.method == MethodDDStore {
			st, err := core.Open(c, spec.ds, core.Options{
				Width:         spec.width,
				Profiler:      prof,
				Framework:     spec.framework,
				LockPerSample: spec.lockPerSample,
				NonBlocking:   spec.nonBlocking,
				CacheBytes:    spec.cacheBytes,
				Metrics:       spec.metrics,
				Spans:         spans,
			})
			if err != nil {
				return err
			}
			defer st.Close()
			loader = &ddp.PlaneLoader{Plane: st}
		}
		r, err := ddp.Run(c, ddp.Config{
			Loader:           loader,
			LocalBatch:       spec.localBatch,
			Epochs:           spec.epochs,
			MaxStepsPerEpoch: spec.maxSteps,
			Seed:             spec.seed,
			SimModel:         simModel,
			Profiler:         prof,
			KeepLatencies:    spec.keepLat,
			Spans:            spans,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		out.Prof.Merge(prof)
		if spec.keepLat {
			out.Latencies = append(out.Latencies, r.Latencies...)
		}
		if c.Rank() == 0 {
			res = r
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if spec.metrics != nil {
		// The ranks' profilers are the one writer of region and event
		// counts; the suite's registry accumulates them run by run.
		obs.AddProfiler(spec.metrics, out.Prof)
	}
	out.MeanThroughput = res.MeanThroughput
	var durSum time.Duration
	for _, e := range res.Epochs {
		out.EpochThroughputs = append(out.EpochThroughputs, e.Throughput)
		durSum += e.Duration
	}
	if len(res.Epochs) > 0 {
		out.EpochDuration = durSum / time.Duration(len(res.Epochs))
	}
	return out, nil
}

func validateSpec(spec runSpec) error {
	if spec.ranks <= 0 {
		return fmt.Errorf("bench: %d ranks", spec.ranks)
	}
	trainSamples := spec.ds.Len() * 8 / 10
	if need := spec.ranks * spec.localBatch; trainSamples < need {
		return fmt.Errorf("bench: dataset %q train split (%d) smaller than one global batch (%d ranks × %d)",
			spec.ds.Name(), trainSamples, spec.ranks, spec.localBatch)
	}
	return nil
}

// runCache memoizes run outcomes within one process so composite
// experiments (fig5/fig6/table2 share the same runs) execute each
// configuration once.
var runCache = struct {
	sync.Mutex
	m map[string]*runOut
}{m: map[string]*runOut{}}

// runCached memoizes runOne, applying the suite-wide cache configuration
// from Options to any spec that does not set its own.
func runCached(o Options, spec runSpec) (*runOut, error) {
	if spec.cacheBytes == 0 && o.CacheBytes > 0 {
		spec.cacheBytes = o.CacheBytes
	}
	spec.metrics = o.Metrics
	spec.traceSink = o.Trace
	key := fmt.Sprintf("%s/%d/%s/%s-%d-%d/%d/%d/%d/%d/%d/%v/%d-%v-%v/%d",
		spec.machine.Name, spec.ranks, spec.method, spec.ds.Name(), spec.ds.Len(), spec.ds.OutputDim(),
		spec.localBatch, spec.epochs, spec.maxSteps, spec.width, spec.seed, spec.keepLat,
		spec.framework, spec.lockPerSample, spec.nonBlocking, spec.cacheBytes)
	runCache.Lock()
	if out, ok := runCache.m[key]; ok {
		runCache.Unlock()
		return out, nil
	}
	runCache.Unlock()
	out, err := runOne(spec)
	if err != nil {
		return nil, err
	}
	runCache.Lock()
	runCache.m[key] = out
	runCache.Unlock()
	return out, nil
}

// latencyPercentiles returns the 50/95/99th percentiles in milliseconds.
func latencyPercentiles(lat []time.Duration) (p50, p95, p99 float64) {
	return ms(stats.DurationPercentile(lat, 50)),
		ms(stats.DurationPercentile(lat, 95)),
		ms(stats.DurationPercentile(lat, 99))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// clusterLaptop is a test seam for the tiny machine.
func clusterLaptop() *cluster.Machine { return cluster.Laptop() }
