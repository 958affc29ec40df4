package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ddstore/internal/cache"
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

// dsKind names one of the four evaluation datasets by its datasets.ByName
// name.
type dsKind string

const (
	dsIsing    dsKind = "ising"
	dsHomoLumo dsKind = "homolumo"
	dsDiscrete dsKind = "discrete"
	dsSmooth   dsKind = "smooth"
)

// String is the dataset's label in the reports.
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
		return string(k)
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
	key := fmt.Sprintf("%s/%d/%d", kind, numGraphs, bins)
	datasetCache.Lock()
	defer datasetCache.Unlock()
	if ds, ok := datasetCache.ds[key]; ok {
		return ds
	}
	ds, err := datasets.ByName(string(kind), datasets.Config{NumGraphs: numGraphs, SpectrumBins: bins})
	if err != nil {
		panic(err)
	}
	// Generate eagerly: the at-scale runs would otherwise regenerate
	// hundreds of thousands of samples per configuration, and on a
	// single-core box the resulting allocation storm costs more (GC
	// fighting the simulation for the CPU, RSS ballooning with garbage)
	// than one packed, pointer-free buffer of wire bytes per dataset
	// (under 1 GB for the largest profile). The ddstore-bench driver drops
	// the cache between experiment groups.
	if err := ds.EnableCache(); err != nil {
		panic(err)
	}
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
	runCache.m = map[string]*RunOut{}
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

// RunSpec describes one simulated DDP training run: the paper's method
// comparison swaps only Method and keeps the rest.
type RunSpec struct {
	Machine    *cluster.Machine
	Ranks      int
	Method     Method
	Dataset    *datasets.Dataset
	LocalBatch int
	Epochs     int
	MaxSteps   int // per epoch; 0 = full epochs
	Width      int // DDStore only; 0 = default (single replica)
	Seed       uint64
	// KeepLatencies retains every rank's per-sample load latencies.
	KeepLatencies bool
	// LocalShuffle samples each rank's own shard instead of global
	// shuffles (ddp.Config.LocalShuffle).
	LocalShuffle bool
	// Model, when set, trains a real HydraGNN of this architecture (its
	// feature and output dimensions come from the dataset, its seed from
	// Seed) at LR 1e-3 with evaluation and the plateau scheduler; nil
	// charges the paper-scale model's modeled compute.
	Model *hydra.Config

	// DDStore design-ablation toggles (see core.Options).
	Framework     core.Framework
	LockPerSample bool
	NonBlocking   bool

	// CacheBytes is DDStore's per-rank remote-sample cache budget (filled
	// in from Options by runCached unless the experiment sets it).
	CacheBytes int64

	// Observability sinks (filled in from Options by runCached). They do
	// not affect the simulated outcome, so they are excluded from the run
	// memoization key — a memoized hit simply records nothing new.
	Metrics *obs.Registry
	Trace   *obs.TraceSink
}

// RunOut is the outcome of one run.
type RunOut struct {
	// Results is every rank's view of the run, in rank order.
	Results []*ddp.Result
	// Prof merges every rank's region profile.
	Prof *trace.Profiler
	// Cache is rank 0's remote-sample cache counters (DDStore only).
	Cache cache.Stats
}

// meanThroughput is global samples per virtual second over the run.
func (o *RunOut) meanThroughput() float64 { return o.Results[0].MeanThroughput }

// epochThroughputs returns one throughput per epoch, exposing run
// variability.
func (o *RunOut) epochThroughputs() []float64 {
	tps := make([]float64, len(o.Results[0].Epochs))
	for i, e := range o.Results[0].Epochs {
		tps[i] = e.Throughput
	}
	return tps
}

// latencies concatenates every rank's per-sample load latencies (empty
// unless KeepLatencies).
func (o *RunOut) latencies() []time.Duration {
	var lat []time.Duration
	for _, r := range o.Results {
		lat = append(lat, r.Latencies...)
	}
	return lat
}

// Run executes one simulated DDP training run. It builds the world, puts
// the PFF/CFF baseline's files on a simulated parallel filesystem or opens
// a DDStore on every rank, trains on every rank, and merges the ranks'
// profiles (into spec.Metrics too, when set).
func Run(spec RunSpec) (*RunOut, error) {
	world, err := comm.NewWorld(spec.Ranks, spec.Seed, comm.WithMachine(spec.Machine))
	if err != nil {
		return nil, err
	}
	ds := spec.Dataset

	var fs *pfs.PFS
	var sizes []int64
	var layout *cff.SimLayout
	switch spec.Method {
	case MethodPFF, MethodCFF:
		fs = pfs.New(spec.Machine, spec.Ranks)
		if sizes, err = sizesFor(ds); err != nil {
			return nil, err
		}
		if spec.Method == MethodPFF {
			pff.RegisterSim(fs, ds, sizes)
		} else if layout, err = cff.RegisterSim(fs, ds, sizes, cffParts); err != nil {
			return nil, err
		}
	case MethodDDStore:
		// no filesystem: the preloader reads straight from the generator
		// source (the paper's preload also happens once and is excluded
		// from the steady-state comparison).
	default:
		return nil, fmt.Errorf("bench: unknown method %q", spec.Method)
	}

	var model *hydra.Config
	if spec.Model != nil {
		cfg := *spec.Model
		cfg.NodeFeatDim, cfg.EdgeFeatDim, cfg.OutputDim = ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim()
		cfg.Seed = spec.Seed
		model = &cfg
	}
	simModel := hydra.PaperConfig(ds.NodeFeatDim(), ds.EdgeFeatDim(), ds.OutputDim())
	label := fmt.Sprintf("%s %s x%d", spec.Method, spec.Machine.Name, spec.Ranks)
	out := &RunOut{Results: make([]*ddp.Result, spec.Ranks), Prof: trace.New()}
	profs := make([]*trace.Profiler, spec.Ranks)
	err = world.Run(func(c *comm.Comm) error {
		prof := trace.New()
		var spans *obs.SpanRing
		if spec.Trace != nil {
			spans = spec.Trace.NewRing(label, c.Rank())
		}
		var loader ddp.Loader
		var st *core.Store
		switch spec.Method {
		case MethodPFF:
			loader = &ddp.SourceLoader{Source: pff.NewSim(fs, ds, sizes, c.Clock(), c.RNG())}
		case MethodCFF:
			loader = &ddp.SourceLoader{Source: cff.NewSim(fs, ds, layout, c.Clock(), c.RNG())}
		case MethodDDStore:
			var err error
			st, err = core.Open(c, ds, core.Options{
				Width:         spec.Width,
				Profiler:      prof,
				Framework:     spec.Framework,
				LockPerSample: spec.LockPerSample,
				NonBlocking:   spec.NonBlocking,
				CacheBytes:    spec.CacheBytes,
				Metrics:       spec.Metrics,
				Spans:         spans,
			})
			if err != nil {
				return err
			}
			defer st.Close()
			loader = &ddp.PlaneLoader{Plane: st}
		}
		tc := ddp.Config{
			Loader:           loader,
			LocalBatch:       spec.LocalBatch,
			Epochs:           spec.Epochs,
			MaxStepsPerEpoch: spec.MaxSteps,
			Seed:             spec.Seed,
			LocalShuffle:     spec.LocalShuffle,
			SimModel:         simModel,
			Profiler:         prof,
			KeepLatencies:    spec.KeepLatencies,
			Spans:            spans,
		}
		if model != nil {
			tc.Model = hydra.New(*model)
			tc.LR, tc.Eval, tc.Plateau = 1e-3, true, true
		}
		r, err := ddp.Run(c, tc)
		if err != nil {
			return err
		}
		// Each rank writes only its own slots.
		out.Results[c.Rank()], profs[c.Rank()] = r, prof
		if c.Rank() == 0 && st != nil {
			out.Cache = st.CacheStats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge in rank order: a profile lists regions and counters in the
	// order they first appear, so the order ranks finished must not set it.
	for _, prof := range profs {
		out.Prof.Merge(prof)
	}
	if spec.Metrics != nil {
		// The ranks' profilers are the one writer of region and event
		// counts; a registry accumulates them run by run.
		obs.AddProfiler(spec.Metrics, out.Prof)
	}
	return out, nil
}

// runCache memoizes run outcomes within one process so composite
// experiments (fig5/fig6/table2 share the same runs) execute each
// configuration once.
var runCache = struct {
	sync.Mutex
	m map[string]*RunOut
}{m: map[string]*RunOut{}}

// runCached memoizes Run, applying the suite-wide cache configuration
// from Options to any spec that does not set its own.
func runCached(o Options, spec RunSpec) (*RunOut, error) {
	if spec.CacheBytes == 0 && o.CacheBytes > 0 {
		spec.CacheBytes = o.CacheBytes
	}
	spec.Metrics = o.Metrics
	spec.Trace = o.Trace
	// The key is every field that sets the outcome: the pointer fields
	// by what they point at, the rest as they are.
	k := spec
	k.Machine, k.Dataset, k.Model, k.Metrics, k.Trace = nil, nil, nil, nil, nil
	model := "cost model"
	if spec.Model != nil {
		model = fmt.Sprintf("%+v", *spec.Model)
	}
	key := fmt.Sprintf("%s/%s-%d-%d/%+v/%s", spec.Machine.Name,
		spec.Dataset.Name(), spec.Dataset.Len(), spec.Dataset.OutputDim(), k, model)
	runCache.Lock()
	if out, ok := runCache.m[key]; ok {
		runCache.Unlock()
		return out, nil
	}
	runCache.Unlock()
	out, err := Run(spec)
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
