package ddstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods that no non-test
// code calls and that stay anyway, each with its reason.
var uncalledAllowed = map[string]string{
	"internal/serveboot.Cluster.CrashOwner": "the elastic protocol's crash hook: the cluster tests kill owners through it, and a deterministic simulator of the protocol is to drive it",
	"internal/tensor.SetParallelism":        "the gnn and hydra determinism tests vary the worker count across packages with it",
	"internal/vtime.RNG.Shuffle":            "the vtime, cff and core tests shuffle load orders with it",
	"internal/bufarena.Buf.Refs":            "the buffer-lifetime tests of bufarena and transport, and graph's differential oracle (edited only to follow a signature), read the count through it",
	"internal/hydra.Model.Save":             "checkpointing (DESIGN §4b), promised to library users through the facade's Model",
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
// that none is declared again. TestEveryExportHasACaller matches bare names,
// and Load, Get, LatencyStats and OwnerOf are also atomic.*.Load,
// sync.Pool.Get, each other and the planes' OwnerOf, so it could never flag
// these as uncalled. Keys are the same
// as exportScan.funcs, with interface methods keyed the same way.
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

	"internal/comm.Comm.Allgatherv":   "it forwarded to Allgather, which takes variable-length contributions; core.Open calls Allgather",
	"internal/comm.Comm.GatherNoCost": "its one caller gathered every rank's profiler to rank 0 as JSON for a second copy of the merged region table; ddp.Result.Loading carries the per-epoch loading times the skew table needs",

	"internal/transport.Client.Meta": "it asked a static server for its chunk range over op 1, now retired; every server serves a shard map, and Client.ShardMap's keyspace is the range",
	"internal/shardmap.Map.OwnerOf":  "its one caller was core.Store's mirror map; the RMA store inverts chunkStarts in closed form, and TCP routes use Map.PreferredOwner",

	"internal/graph.Packer.Add":            wireSources,
	"internal/datasets.Dataset.ReadSample": wireSources,
}

const (
	eagerLoad      = "a second, eager result shape (a materialized []*graph.Graph) duplicated the lazy loads every plane returns, and ddp.PlaneLoader.LoadBatch is the one place they are materialized"
	latencyWindow  = "the fetch engine's latency window kept a second copy of the per-position latencies every load returns, and the ddstore_fetch_latency_seconds histogram already summarizes them"
	evictionPolicy = "the cache evicts least-recently-used only: FIFO and Clock were selected by nothing but a deleted wall-clock bench section, and every workload ran LRU"
	cdfQuantile    = "CDF.Quantile(q) was percentileSorted(q*100), the same computation as stats.Percentile; stats.DurationPercentile is the one percentile of durations"
	wireSources    = "preload and serving sources append wire bytes (AppendSample, Packer.AddFrom), so no source builds a Graph for a packer to encode; Dataset.Sample is the one way to a generated Graph"
)

// exportScan is what one pass over the module's non-test Go files finds.
type exportScan struct {
	// funcs holds every exported function and method declared outside the
	// facade and benchmark/, keyed "dir.Name" or "dir.Recv.Name", with its
	// bare name.
	funcs map[string]string
	// types holds the exported top-level types declared there, keyed
	// "dir.Name".
	types map[string]bool
	// ifaceMethods holds the exported methods of the exported interfaces
	// declared there, keyed "dir.Interface.Name".
	ifaceMethods map[string]bool
	// refs holds every identifier name referenced anywhere but in its own
	// declaration.
	refs map[string]bool
}

// scanModule parses every non-test Go file under the module root, the
// benchmark module included. The facade (ddstore.go) is left out on both
// sides: a re-export is not a caller, and TestFacadeSurface pins the facade
// itself.
func scanModule(t *testing.T) exportScan {
	t.Helper()
	s := exportScan{funcs: map[string]string{}, types: map[string]bool{}, ifaceMethods: map[string]bool{}, refs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || path == "ddstore.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declares := dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/")
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				own[decl.Name] = true
				if !declares || !decl.Name.IsExported() {
					continue
				}
				key := dir + "." + decl.Name.Name
				if decl.Recv != nil {
					key = dir + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				s.funcs[key] = decl.Name.Name
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !declares || !ts.Name.IsExported() {
						continue
					}
					s.types[dir+"."+ts.Name.Name] = true
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								if n.IsExported() {
									s.ifaceMethods[dir+"."+ts.Name.Name+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				s.refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recvName is a method receiver's base type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestEveryExportHasACaller keeps dead exports deleted. An exported function
// or method counts as called when its name is referenced anywhere in the
// module's non-test code — any package, cmd/, examples/ or benchmark/ —
// other than the facade. The rule matches names, not objects, so it can
// miss dead code but never reports live code: a method shares its callers
// with every same-named method, field and variable. Every exported name
// must have a caller or an entry in uncalledAllowed, every allowlist entry
// must name a declared export that still lacks a caller, and every pinned
// name must stay declared, and no retired name may be declared again.
func TestEveryExportHasACaller(t *testing.T) {
	s := scanModule(t)
	var dead []string
	for key, name := range s.funcs {
		if _, ok := uncalledAllowed[key]; !ok && !s.refs[name] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test code calls it: delete it, move it into an export_test.go, or allowlist it with a reason", key)
	}
	for key := range uncalledAllowed {
		name, ok := s.funcs[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no exported function or method", key)
		case s.refs[name]:
			t.Errorf("allowlist entry %s is stale: %s now has a caller", key, name)
		}
	}
	for _, key := range pinned {
		if _, ok := s.funcs[key]; !ok && !s.types[key] {
			t.Errorf("pinned name %s is no longer declared, and the benchmark module uses it", key)
		}
	}
	for key, why := range retired {
		if _, ok := s.funcs[key]; ok || s.ifaceMethods[key] {
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
	"Graph":             "one sample, as PlaneLoader.LoadBatch returns it",
	"Batch":             "what NewBatch returns",
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
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ddstore.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			declared[decl.Name.Name] = decl.Name.IsExported()
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declared[spec.Name.Name] = spec.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declared[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "ddstore" {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for name, exported := range declared {
		if exported && !used[name] && promised[name] == "" {
			t.Errorf("ddstore.%s is exported, but no example or command uses it and it is not promised to library users", name)
		}
	}
	for name := range promised {
		switch {
		case !declared[name]:
			t.Errorf("promised name ddstore.%s is not exported by the facade", name)
		case used[name]:
			t.Errorf("promised entry ddstore.%s is stale: an example or command uses it", name)
		}
	}
}
