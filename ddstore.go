// Package ddstore is a from-scratch Go implementation of DDStore — the
// distributed in-memory data store for scalable training of graph neural
// networks on large atomistic datasets (Choi et al., SC-W 2023) — together
// with every substrate the paper's evaluation depends on: an MPI-like
// runtime with one-sided RMA, the PFF and CFF storage baselines, a
// simulated parallel filesystem and machine models of the Summit and
// Perlmutter supercomputers, synthetic equivalents of the paper's four
// atomistic datasets, a HydraGNN implementation (PNA layers + AdamW +
// ReduceLROnPlateau), and a distributed-data-parallel training loop.
//
// This package is the public facade: it re-exports the pieces a downstream
// user composes. The basic recipe is
//
//	world, _ := ddstore.NewWorld(8, 42, ddstore.WithMachine(ddstore.Perlmutter()))
//	dataset := ddstore.HomoLumo(ddstore.DatasetConfig{NumGraphs: 10000})
//	err := world.Run(func(c *ddstore.Comm) error {
//	    store, err := ddstore.Open(c, dataset, ddstore.StoreOptions{Width: 4})
//	    if err != nil {
//	        return err
//	    }
//	    loader := &ddstore.PlaneLoader{Plane: store}
//	    batch, _, err := loader.LoadBatch([]int64{3, 1, 4, 1_000, 5_000})
//	    ...
//	})
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the paper-reproduction results.
package ddstore

import (
	"ddstore/internal/bench"
	"ddstore/internal/cluster"
	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/trace"
)

// Runtime (MPI-like world of ranks).
type (
	// World is a set of ranks executing together; see NewWorld.
	World = comm.World
	// Comm is one rank's communicator handle.
	Comm = comm.Comm
	// Win is a one-sided RMA window (MPI_Win).
	Win = comm.Win
	// WorldOption configures NewWorld.
	WorldOption = comm.Option
	// Machine is a supercomputer performance model.
	Machine = cluster.Machine
)

// NewWorld creates a world of size ranks; seed drives all deterministic
// randomness. Attach a machine model with WithMachine to enable
// virtual-time cost accounting.
func NewWorld(size int, seed uint64, opts ...WorldOption) (*World, error) {
	return comm.NewWorld(size, seed, opts...)
}

// WithMachine attaches a machine model to a world.
func WithMachine(m *Machine) WorldOption { return comm.WithMachine(m) }

// Summit returns the Summit supercomputer model (6 V100 GPUs per node).
func Summit() *Machine { return cluster.Summit() }

// Perlmutter returns the Perlmutter model (4 A100 GPUs per node).
func Perlmutter() *Machine { return cluster.Perlmutter() }

// Laptop returns a tiny machine model for local experimentation.
func Laptop() *Machine { return cluster.Laptop() }

// The store itself.
type (
	// Store is a DDStore instance handle; create it with Open.
	Store = core.Store
	// StoreOptions configures Open (most importantly the width parameter).
	StoreOptions = core.Options
	// SampleSource is anything the preloader can read a dataset from.
	SampleSource = core.SampleSource
	// StoreStats counts the loader's local/remote traffic.
	StoreStats = core.Stats
)

// Open collectively creates a DDStore over the communicator: chunks the
// source dataset across the ranks' memories, forms width-sized replica
// groups, builds the registry, and registers the RMA windows.
func Open(c *Comm, src SampleSource, opts StoreOptions) (*Store, error) {
	return core.Open(c, src, opts)
}

// Graph data model.
type (
	// Graph is one atomistic sample (atoms as nodes, bonds as edges).
	Graph = graph.Graph
	// Batch is the disjoint union of several graphs, the GNN's input.
	Batch = graph.Batch
)

// DecodeGraph deserializes one encoded graph.
func DecodeGraph(data []byte) (*Graph, error) { return graph.Decode(data) }

// Datasets.
type (
	// Dataset is a deterministic synthetic dataset generator.
	Dataset = datasets.Dataset
	// DatasetConfig controls dataset size and spectrum resolution.
	DatasetConfig = datasets.Config
)

// Ising returns the synthetic Ising-model dataset (125-atom lattices).
func Ising(cfg DatasetConfig) *Dataset { return datasets.Ising(cfg) }

// HomoLumo returns the AISD HOMO-LUMO-style molecular dataset.
func HomoLumo(cfg DatasetConfig) *Dataset { return datasets.HomoLumo(cfg) }

// AISDExDiscrete returns the discrete UV-vis spectrum dataset (2×50 peaks).
func AISDExDiscrete(cfg DatasetConfig) *Dataset { return datasets.AISDExDiscrete(cfg) }

// AISDExSmooth returns the Gaussian-smoothed UV-vis spectrum dataset.
func AISDExSmooth(cfg DatasetConfig) *Dataset { return datasets.AISDExSmooth(cfg) }

// Model and training.
type (
	// Model is a HydraGNN replica (PNA convolutions + FC head).
	Model = hydra.Model
	// ModelConfig describes a HydraGNN instance.
	ModelConfig = hydra.Config
	// TrainConfig configures the DDP training loop.
	TrainConfig = ddp.Config
	// TrainResult is one training run's outcome.
	TrainResult = ddp.Result
	// EpochStats summarizes one training epoch.
	EpochStats = ddp.EpochStats
	// Loader produces batches for a rank (PlaneLoader, SourceLoader).
	Loader = ddp.Loader
	// PlaneLoader serves batches from either DDStore data plane (the
	// in-process RMA Store or a TCP transport.Group).
	PlaneLoader = ddp.PlaneLoader
	// SourceLoader serves batches straight from a storage backend.
	SourceLoader = ddp.SourceLoader
	// Profiler accumulates per-region timings.
	Profiler = trace.Profiler
)

// NewModel builds a HydraGNN replica.
func NewModel(cfg ModelConfig) *Model { return hydra.New(cfg) }

// PaperModelConfig returns the paper's §4.2 architecture (6 PNA layers of
// 200, 3 FC layers of 200) for a dataset's dimensions.
func PaperModelConfig(nodeDim, edgeDim, outputDim int) ModelConfig {
	return hydra.PaperConfig(nodeDim, edgeDim, outputDim)
}

// Train runs the DDP training loop on this rank (call from every rank).
func Train(c *Comm, cfg TrainConfig) (*TrainResult, error) { return ddp.Run(c, cfg) }

// NewProfiler returns an empty region profiler.
func NewProfiler() *Profiler { return trace.New() }

// Experiments (paper reproduction).
type (
	// Experiment is one registered table/figure reproduction.
	Experiment = bench.Experiment
	// ExperimentOptions selects quick or full scale.
	ExperimentOptions = bench.Options
	// ExperimentReport is an experiment's rendered result.
	ExperimentReport = bench.Report
)

// Experiments lists every registered table/figure reproduction.
func Experiments() []Experiment { return bench.Experiments() }

// LookupExperiment finds an experiment by id (e.g. "fig4", "table2").
func LookupExperiment(id string) (Experiment, bool) { return bench.Lookup(id) }

// Additional model features.
type (
	// ModelHead configures one output head of a multi-task model.
	ModelHead = hydra.Head
	// ConvType selects the message-passing policy (PNA or GIN).
	ConvType = hydra.ConvType
)

// Message-passing policies for ModelConfig.Conv.
const (
	ConvPNA = hydra.ConvPNA
	ConvGIN = hydra.ConvGIN
)

// Store design-space options (see StoreOptions.Framework).
const (
	// FrameworkRMA is the paper's one-sided design (default).
	FrameworkRMA = core.FrameworkRMA
	// FrameworkTwoSided is the rejected request/response alternative,
	// kept for the abl-comm ablation. Its loads are collective: every
	// member of a replica group loads the same number of times, and one
	// rank's loads run one at a time.
	FrameworkTwoSided = core.FrameworkTwoSided
)
