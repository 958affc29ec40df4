package ddstore

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed lists the functions, methods and exported names that no
// non-test code uses and that stay anyway, each with its reason.
var uncalledAllowed = map[string]string{
	"internal/serveboot.Cluster.CrashOwner": "the elastic protocol's crash hook: the cluster tests kill owners through it, and a deterministic simulator of the protocol is to drive it",
	"internal/tensor.SetParallelism":        "the gnn and hydra determinism tests vary the worker count across packages with it",
	"internal/vtime.RNG.Shuffle":            "the vtime, cff and core tests shuffle load orders with it",
	"internal/bufarena.Buf.Refs":            "the buffer-lifetime tests of bufarena and transport, and graph's differential oracle (edited only to follow a signature), read the count through it",
	"internal/hydra.Model.Save":             "checkpointing (DESIGN §4b), promised to library users through the facade's Model",
	"internal/bufarena.Live":                "the cache-pin test in serveboot and bufarena's own tests read the live arena memory through it",
	"internal/hydra.Model.Load":             "restores what Save writes: the pair of Save, promised with it",
	"internal/graph.Lazy.Clone":             "graph's view tests and fetch's differential oracle (edited only to follow a signature) copy views with it",
	"internal/graph.Lazy.Ref":               "fetch's differential oracle (edited only to follow a signature) and graph's tests read a view's buffer reference through it",
	"internal/trace.Profiler.Counter":       "the tests of core, faultnet, serveboot, trace and transport read one event count through it",
}

// pinned lists what the benchmark module calls: benchmark/ changes only on
// its own and must compile unmodified against every other change, so these
// stay declared whatever else calls them.
var pinned = []string{
	"internal/transport.Client.GetRaw",
	"internal/transport.Client.GetRawTraced",
	"internal/transport.Client.GetBatchBufs",
	"internal/transport.Client.GetBatchRaw",
	"internal/transport.Group.LoadLazy",
	"internal/transport.Group.LoadLazyTraced",
	"internal/cache.Cache.PutRef",
	"internal/cache.Cache.ClaimRef",
	"internal/ddp.PlaneLoader.LoadBatchLazy",
	"internal/serveboot.Boot",
	"internal/serveboot.BootCluster",
	"internal/serveboot.ElasticConfig",
	"internal/serveboot.Cluster.Addrs",
	"internal/serveboot.Cluster.CacheStats",
	"internal/serveboot.Cluster.FrontendStats",
	"internal/serveboot.Cluster.Generation",
	"internal/serveboot.Cluster.Registry",
	"internal/graph.DecodeLazy",
	"internal/graph.Lazy.Graph",
	"internal/graph.NewBatch",
}

// retired lists deleted functions and methods, each with why it went, so
// that none is declared again as a second way to what stays. The type scan
// flags a dead declaration, but not one declared again with a caller. Keys
// are those of moduleScan.decls, interface methods keyed the same way.
var retired = map[string]string{
	"internal/fetch.Engine.Load":         eagerLoad,
	"internal/core.Store.Load":           eagerLoad,
	"internal/core.Store.LoadTimed":      eagerLoad,
	"internal/transport.Group.Get":       eagerLoad,
	"internal/transport.Group.Load":      eagerLoad,
	"internal/transport.Group.LoadTimed": eagerLoad,
	"internal/ddp.DataPlane.LoadTimed":   eagerLoad,

	"internal/fetch.Engine.LatencyStats":    latencyWindow,
	"internal/core.Store.LatencyStats":      latencyWindow,
	"internal/transport.Group.LatencyStats": latencyWindow,
	"internal/ddp.DataPlane.LatencyStats":   latencyWindow,
	"internal/ddp.PlaneLoader.LatencyStats": latencyWindow,
	"internal/obs.CollectLatencySummary":    "it exported the engine's latency window as percentile gauges; ddstore_fetch_latency_seconds is the one latency series",
	"internal/trace.NewSampling":            "profiler sample reservoirs were read by nothing; latency CDFs come from the latencies loads return (ddp.Config.KeepLatencies)",

	"internal/cache.ParsePolicy":   evictionPolicy,
	"internal/cache.Policy.String": evictionPolicy,
	"internal/stats.NewCDF":        cdfQuantile,
	"internal/stats.CDF.Quantile":  cdfQuantile,

	"internal/comm.Comm.Allgatherv":    "it forwarded to Allgather, which takes variable-length contributions; core.Open calls Allgather",
	"internal/comm.Comm.GatherNoCost":  "its one caller gathered every rank's profiler to rank 0 as JSON for a second copy of the merged region table; ddp.Result.Loading carries the per-epoch loading times the skew table needs",
	"internal/comm.Comm.ShareFromRoot": "its one caller handed group rank 0's built sample index to the group; the registry is now every member's packed end offsets, which Allgather shares by reference",

	"internal/transport.Client.Meta": "it asked a static server for its chunk range over op 1, now retired; every server serves a shard map, and Client.ShardMap's keyspace is the range",
	"internal/shardmap.Map.OwnerOf":  "its one caller was core.Store's mirror map; the RMA store inverts chunkStarts in closed form, and TCP routes use Map.PreferredOwner",

	"internal/graph.Packer.Add":            wireSources,
	"internal/datasets.Dataset.ReadSample": wireSources,

	"internal/ddp.GraphSource.ReadSample":      batchFromWire,
	"internal/ddp.TimedSource.ReadSampleTimed": batchFromWire,
	"internal/pff.Store.ReadSample":            batchFromWire,
	"internal/cff.Store.ReadSample":            batchFromWire,
	"internal/pff.Sim.ReadSample":              batchFromWire,
	"internal/pff.Sim.ReadSampleTimed":         batchFromWire,
	"internal/cff.Sim.ReadSample":              batchFromWire,
	"internal/cff.Sim.ReadSampleTimed":         batchFromWire,
	"internal/graph.Graph.Validate":            "no code outside tests called it; a sample's counts and lengths are checked by the codec's exact-length parse (CheckEncoded, DecodeLazy) and its edge endpoints by batch assembly (NewBatch, BatchFromWire)",
	"internal/pff.RegisterSimSizes":            simSizes,
	"internal/cff.RegisterSimSizes":            simSizes,
}

const (
	eagerLoad      = "a second, eager result shape (a materialized []*graph.Graph) duplicated the lazy loads every plane returns, and ddp.PlaneLoader.LoadBatch is the one place they become a batch"
	latencyWindow  = "the fetch engine's latency window kept a second copy of the per-position latencies every load returns, and the ddstore_fetch_latency_seconds histogram already summarizes them"
	evictionPolicy = "the cache evicts least-recently-used only: FIFO and Clock were selected by nothing but a deleted wall-clock bench section, and every workload ran LRU"
	cdfQuantile    = "CDF.Quantile(q) was percentileSorted(q*100), the same computation as stats.Percentile; stats.DurationPercentile is the one percentile of durations"
	wireSources    = "preload and serving sources append wire bytes (AppendSample, Packer.AddFrom), so no source builds a Graph for a packer to encode; Dataset.Sample is the one way to a generated Graph"
	simSizes       = "a baseline's files are registered one way, RegisterSim from pff.SampleSizes' sizes, which the experiments compute once per dataset"
	batchFromWire  = "both loaders build their batch straight from wire bytes (graph.BatchFromWire), so the PFF/CFF baseline reads bytes (ddp.Source.AppendSampleTimed) and no reader hands out decoded Graphs for the trainer"
)

// moduleScan is the importer that type-checks each module package from
// source once, so that benchmark/ resolves to the same objects (the
// standard library goes to the source importer), and what that finds:
// decls, every function and method and every exported top-level const, var
// and type outside the facade and benchmark/, keyed "dir.Name" or
// "dir.Recv.Name"; ifaceMethods, the methods of the named interfaces there;
// used, what counts as called; byCmd, what examples/ and cmd/ name.
type moduleScan struct {
	fset         *token.FileSet
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
	decls        map[string]types.Object
	ifaceMethods map[string]bool
	used, byCmd  map[types.Object]bool
	facade       *types.Scope
}

// hooks are the methods the standard library calls through interfaces
// that the module never names: fmt prints String and Error, and errors.Is
// walks Is and Unwrap.
const hooks = `package hooks
type (s interface{ String() string }; e interface{ Error() string }; i interface{ Is(error) bool }; u interface{ Unwrap() error })`

func (s *moduleScan) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "ddstore")
	if !ok || dir != "" && dir[0] != '/' {
		return s.std.Import(path)
	}
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir("."+dir, 0)
	if err != nil {
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		s.files[path] = append(s.files[path], f)
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, s.files[path], s.info)
	s.pkgs[path] = p
	return p, err
}

// scan type-checks every non-test Go file under the module root once per
// test binary: every package, cmd/, examples/, the facade (ddstore.go) and
// the benchmark module. The facade and benchmark/ are users only:
// TestFacadeSurface pins the one, and the other changes on its own.
var scan = sync.OnceValues(func() (*moduleScan, error) {
	fset := token.NewFileSet()
	s := &moduleScan{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		decls: map[string]types.Object{}, ifaceMethods: map[string]bool{}, used: map[types.Object]bool{}, byCmd: map[types.Object]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err = s.Import(strings.TrimSuffix("ddstore/"+filepath.ToSlash(path), "/.")); errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		return err
	})
	f, _ := parser.ParseFile(fset, "hooks.go", hooks, 0)
	hookPkg, _ := (&types.Config{}).Check("hooks", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range hookPkg.Scope().Names() {
		s.used[hookPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface).Method(0)] = true
	}
	s.facade = s.pkgs["ddstore"].Scope()
	var named []*types.Named
	for path, p := range s.pkgs {
		dir := strings.TrimPrefix(path, "ddstore/")
		declares := path != "ddstore" && dir != "benchmark"
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if _, ok := obj.(*types.Func); declares && (ok && name != "main" || obj.Exported()) {
				s.decls[dir+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			it, _ := n.Underlying().(*types.Interface)
			if it == nil {
				named = append(named, n)
			}
			for i := 0; declares && it != nil && i < it.NumExplicitMethods(); i++ {
				s.ifaceMethods[dir+"."+name+"."+it.ExplicitMethod(i).Name()] = true
			}
			for i := 0; declares && i < n.NumMethods(); i++ {
				s.decls[dir+"."+name+"."+n.Method(i).Name()] = n.Method(i)
			}
		}
	}
	// A use inside a function's own declaration is not a call.
	for path, files := range s.files {
		cmd := strings.HasPrefix(path, "ddstore/cmd/") || strings.HasPrefix(path, "ddstore/examples/")
		for _, f := range files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = s.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					obj := s.info.Uses[id]
					if f, ok := obj.(*types.Func); ok {
						obj = f.Origin() // a generic's instance counts for its origin
					}
					if obj != nil && obj != self {
						s.used[obj], s.byCmd[obj] = true, s.byCmd[obj] || cmd
					}
					return true
				})
			}
		}
	}
	// A called interface method calls the method that implements it on
	// every module type, declared there or promoted from an embedded field.
	for obj := range maps.Clone(s.used) {
		var it *types.Interface
		if m, ok := obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil {
			it, _ = m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		}
		for _, n := range named {
			if p := types.NewPointer(n); it != nil && n.TypeParams().Len() == 0 && types.Implements(p, it) {
				s.used[types.NewMethodSet(p).Lookup(obj.Pkg(), obj.Name()).Obj().(*types.Func).Origin()] = true
			}
		}
	}
	return s, nil
})

// TestEveryExportHasACaller keeps dead code deleted. A function, method,
// const, var or type is called when non-test code refers to it outside its
// own declaration; a method also when it implements a called interface
// method, on its own type or promoted through an embedded field, and the
// standard library's hooks (String, Error, Is, Unwrap) always are. Every
// function and method, and every exported top-level name, must be called
// or allowlisted; every allowlist entry must name a declared object still
// uncalled, every pinned name must stay declared, and no retired name may
// be declared again.
func TestEveryExportHasACaller(t *testing.T) {
	s, err := scan()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, obj := range s.decls {
		if _, ok := uncalledAllowed[key]; !ok && !s.used[obj] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s has no caller in non-test code: delete it, move it into an export_test.go, or allowlist it with a reason", key)
	}
	for key := range uncalledAllowed {
		switch obj, ok := s.decls[key]; {
		case !ok:
			t.Errorf("allowlist entry %s names no declared function, method or exported name", key)
		case s.used[obj]:
			t.Errorf("allowlist entry %s is stale: it now has a caller", key)
		}
	}
	for _, key := range pinned {
		if s.decls[key] == nil {
			t.Errorf("pinned name %s is no longer declared, and the benchmark module uses it", key)
		}
	}
	for key, why := range retired {
		if s.decls[key] != nil || s.ifaceMethods[key] {
			t.Errorf("retired name %s is declared again: %s", key, why)
		}
	}
}

// promised lists the facade's names that no example or command uses, each
// with what a library user needs it for.
var promised = map[string]string{
	"World":             "what NewWorld returns: Run and MaxTime",
	"WorldOption":       "NewWorld's option type",
	"Machine":           "what Summit, Perlmutter and Laptop return, and what WithMachine takes",
	"Win":               "the RMA window a Comm creates",
	"Store":             "what Open returns",
	"SampleSource":      "what Open reads a dataset from, for sources other than the generators",
	"StoreStats":        "what Store.Stats returns",
	"Graph":             "one sample, as DecodeGraph and Dataset.Sample return it",
	"Batch":             "what a Loader's LoadBatch returns, the model's input",
	"DecodeGraph":       "reads one encoded sample",
	"Model":             "what NewModel returns, checkpointing included",
	"Loader":            "TrainConfig's loader interface",
	"SourceLoader":      "the storage-backend baseline loader",
	"Profiler":          "per-region timings for TrainConfig",
	"NewProfiler":       "makes a Profiler",
	"Experiment":        "one registered paper reproduction",
	"ExperimentOptions": "how an Experiment runs",
	"ExperimentReport":  "what an Experiment produces",
	"Experiments":       "lists the paper reproductions",
	"LookupExperiment":  "finds one by id",
	"FrameworkRMA":      "StoreOptions.Framework: the paper's one-sided design",
	"FrameworkTwoSided": "StoreOptions.Framework: the two-sided design abl-comm compares",
}

// TestFacadeSurface pins the public facade: every name ddstore.go exports is
// used by an example or a command, or is listed in promised with its reason,
// and no promised entry is one an example or command already uses.
func TestFacadeSurface(t *testing.T) {
	s, err := scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.facade.Names() {
		if obj := s.facade.Lookup(name); obj.Exported() && !s.byCmd[obj] && promised[name] == "" {
			t.Errorf("ddstore.%s is exported, but no example or command uses it and it is not promised to library users", name)
		}
	}
	for name := range promised {
		switch obj := s.facade.Lookup(name); {
		case obj == nil || !obj.Exported():
			t.Errorf("promised name ddstore.%s is not exported by the facade", name)
		case s.byCmd[obj]:
			t.Errorf("promised entry ddstore.%s is stale: an example or command uses it", name)
		}
	}
}
