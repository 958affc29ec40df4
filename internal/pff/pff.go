// Package pff implements the per-object file format baseline (the paper's
// "PFF", one Python-pickle file per sample): every graph sample is stored in
// its own file. This is the simplest storage scheme and the worst at scale —
// every sample read pays a filesystem metadata operation, and millions of
// tiny files hammer the parallel filesystem's metadata servers.
//
// Two implementations are provided:
//
//   - Store reads and writes real files on a local filesystem (used by unit
//     tests, the real-time benchmarks, and the ddstore-gen tool).
//   - Sim models the same access pattern on the simulated parallel
//     filesystem (internal/pfs) for the at-scale experiments: sample bytes
//     come from the deterministic generators while I/O costs are charged to
//     virtual clocks.
package pff

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
	"ddstore/internal/pfs"
	"ddstore/internal/vtime"
)

// Meta describes a PFF directory.
type Meta struct {
	Name        string `json:"name"`
	NumGraphs   int    `json:"num_graphs"`
	NodeFeatDim int    `json:"node_feat_dim"`
	EdgeFeatDim int    `json:"edge_feat_dim"`
	OutputDim   int    `json:"output_dim"`
}

const metaFile = "meta.json"

// samplePath returns the file path for one sample. Samples are spread over
// 256 subdirectories to avoid unusably large directories, like real
// per-object datasets do.
func samplePath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("%02x", id%256), fmt.Sprintf("%d.bin", id))
}

// Write materializes samples [lo, hi) of the dataset as one file per sample
// under dir, plus the metadata file. Pass lo=0, hi=ds.Len() for the whole
// dataset.
func Write(dir string, ds *datasets.Dataset, lo, hi int64) error {
	if lo < 0 || hi > int64(ds.Len()) || lo > hi {
		return fmt.Errorf("pff: bad range [%d,%d) for %d samples", lo, hi, ds.Len())
	}
	for sub := 0; sub < 256; sub++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("%02x", sub)), 0o755); err != nil {
			return err
		}
	}
	for id := lo; id < hi; id++ {
		g, err := ds.Sample(id)
		if err != nil {
			return err
		}
		if err := os.WriteFile(samplePath(dir, id), g.Encode(), 0o644); err != nil {
			return err
		}
	}
	meta := Meta{
		Name:        ds.Name(),
		NumGraphs:   ds.Len(),
		NodeFeatDim: ds.NodeFeatDim(),
		EdgeFeatDim: ds.EdgeFeatDim(),
		OutputDim:   ds.OutputDim(),
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFile), data, 0o644)
}

// Store reads a real PFF directory.
type Store struct {
	dir  string
	meta Meta
}

// Open opens a PFF directory previously produced by Write.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("pff: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("pff: corrupt metadata: %w", err)
	}
	return &Store{dir: dir, meta: meta}, nil
}

// Name returns the dataset name.
func (s *Store) Name() string { return s.meta.Name }

// Len returns the number of samples.
func (s *Store) Len() int { return s.meta.NumGraphs }

// ReadSample opens and decodes one sample file — the per-object access
// pattern: open, read, close, for every sample.
func (s *Store) ReadSample(id int64) (*graph.Graph, error) {
	if id < 0 || id >= int64(s.meta.NumGraphs) {
		return nil, fmt.Errorf("pff: sample %d out of range [0,%d)", id, s.meta.NumGraphs)
	}
	data, err := os.ReadFile(samplePath(s.dir, id))
	if err != nil {
		return nil, fmt.Errorf("pff: %w", err)
	}
	return graph.Decode(data)
}

// RegisterSim registers the dataset's per-sample virtual files on the
// simulated filesystem and returns the per-sample encoded sizes. Call once
// (typically from rank 0 or before the world starts).
func RegisterSim(fs *pfs.PFS, ds *datasets.Dataset) ([]int64, error) {
	sizes, err := SampleSizes(ds)
	if err != nil {
		return nil, err
	}
	RegisterSimSizes(fs, ds, sizes)
	return sizes, nil
}

// SampleSizes returns every sample's encoded size (generating each sample
// once). The result is reusable across filesystems and experiments.
func SampleSizes(ds *datasets.Dataset) ([]int64, error) {
	sizes := make([]int64, ds.Len())
	for id := int64(0); id < int64(ds.Len()); id++ {
		g, err := ds.Sample(id)
		if err != nil {
			return nil, err
		}
		sizes[id] = int64(g.EncodedSize())
	}
	return sizes, nil
}

// RegisterSimSizes registers the per-sample virtual files from precomputed
// sizes (see SampleSizes), skipping regeneration.
func RegisterSimSizes(fs *pfs.PFS, ds *datasets.Dataset, sizes []int64) {
	for id := int64(0); id < int64(ds.Len()); id++ {
		fs.Create(simPath(ds.Name(), id), sizes[id])
	}
}

func simPath(name string, id int64) string {
	return fmt.Sprintf("pff/%s/%02x/%d.bin", name, id%256, id)
}

// Sim models PFF reads for one rank on the simulated filesystem.
type Sim struct {
	ds     *datasets.Dataset
	reader *pfs.Reader
	sizes  []int64
}

// NewSim creates a per-rank simulated PFF reader. clock and rng are the
// rank's; sizes must come from RegisterSim on the same dataset.
func NewSim(fs *pfs.PFS, ds *datasets.Dataset, sizes []int64, clock *vtime.Clock, rng *vtime.RNG) *Sim {
	return &Sim{ds: ds, reader: fs.Reader(clock, rng), sizes: sizes}
}

// Name returns the dataset name.
func (s *Sim) Name() string { return s.ds.Name() }

// Len returns the number of samples.
func (s *Sim) Len() int { return s.ds.Len() }

// ReadSample charges the modeled cost of the open+read of one sample file
// and returns the (deterministically generated) sample.
func (s *Sim) ReadSample(id int64) (*graph.Graph, error) {
	if id < 0 || id >= int64(s.ds.Len()) {
		return nil, fmt.Errorf("pff: sample %d out of range [0,%d)", id, s.ds.Len())
	}
	if _, err := s.reader.ReadAt(simPath(s.ds.Name(), id), 0, s.sizes[id]); err != nil {
		return nil, err
	}
	return s.ds.Sample(id)
}

// ReadSampleTimed is ReadSample plus the charged duration, for latency CDFs.
func (s *Sim) ReadSampleTimed(id int64) (*graph.Graph, time.Duration, error) {
	if id < 0 || id >= int64(s.ds.Len()) {
		return nil, 0, fmt.Errorf("pff: sample %d out of range [0,%d)", id, s.ds.Len())
	}
	cost, err := s.reader.ReadAt(simPath(s.ds.Name(), id), 0, s.sizes[id])
	if err != nil {
		return nil, 0, err
	}
	g, err := s.ds.Sample(id)
	return g, cost, err
}
