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
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	var buf [32]byte
	return filepath.Join(dir, string(appendSampleFile(buf[:0], id)))
}

// appendSampleFile appends a sample's path below the dataset's root,
// "%02x/%d.bin" of (id%256, id), to b. id must not be negative.
func appendSampleFile(b []byte, id int64) []byte {
	const hex = "0123456789abcdef"
	sub := id % 256
	b = append(b, hex[sub>>4], hex[sub&15], '/')
	b = strconv.AppendInt(b, id, 10)
	return append(b, ".bin"...)
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
	var buf []byte
	for id := lo; id < hi; id++ {
		var err error
		if buf, err = ds.AppendSample(buf[:0], id); err != nil {
			return err
		}
		if err := os.WriteFile(samplePath(dir, id), buf, 0o644); err != nil {
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

// AppendSample appends sample id's file to buf as stored, with no decode —
// the per-object access pattern: open, read, close, for every sample. A
// file that is not exactly one encoded graph holding id (graph.CheckEncoded)
// is refused, and buf comes back as it was.
func (s *Store) AppendSample(buf []byte, id int64) ([]byte, error) {
	if id < 0 || id >= int64(s.meta.NumGraphs) {
		return buf, fmt.Errorf("pff: sample %d out of range [0,%d)", id, s.meta.NumGraphs)
	}
	f, err := os.Open(samplePath(s.dir, id))
	if err != nil {
		return buf, fmt.Errorf("pff: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return buf, fmt.Errorf("pff: %w", err)
	}
	n := int(st.Size())
	out := slices.Grow(buf, n)[:len(buf)+n]
	if _, err := io.ReadFull(f, out[len(buf):]); err != nil {
		return buf, fmt.Errorf("pff: sample %d: %w", id, err)
	}
	if err := graph.CheckEncoded(out[len(buf):], id); err != nil {
		return buf, fmt.Errorf("pff: %w", err)
	}
	return out, nil
}

// SampleSizes returns every sample's encoded size (generating each sample
// once, into one reused buffer). The result is reusable across filesystems,
// experiments and both file formats (pff.RegisterSim, cff.RegisterSim).
func SampleSizes(ds *datasets.Dataset) ([]int64, error) {
	sizes := make([]int64, ds.Len())
	var buf []byte
	for id := range sizes {
		var err error
		if buf, err = ds.AppendSample(buf[:0], int64(id)); err != nil {
			return nil, err
		}
		sizes[id] = int64(len(buf))
	}
	return sizes, nil
}

// RegisterSim registers the dataset's per-sample virtual files on the
// simulated filesystem, sized by SampleSizes. Call once (typically before
// the world starts).
func RegisterSim(fs *pfs.PFS, ds *datasets.Dataset, sizes []int64) {
	for id := int64(0); id < int64(ds.Len()); id++ {
		fs.Create(simPath(ds.Name(), id), sizes[id])
	}
}

// simPath is a sample's file on the simulated filesystem:
// "pff/<name>/%02x/%d.bin".
func simPath(name string, id int64) string {
	var buf [96]byte
	b := append(buf[:0], "pff/"...)
	b = append(b, name...)
	b = append(b, '/')
	return string(appendSampleFile(b, id))
}

// Sim models PFF reads for one rank on the simulated filesystem.
type Sim struct {
	ds     *datasets.Dataset
	reader *pfs.Reader
	sizes  []int64
}

// NewSim creates a per-rank simulated PFF reader. clock and rng are the
// rank's; sizes are the ones RegisterSim registered.
func NewSim(fs *pfs.PFS, ds *datasets.Dataset, sizes []int64, clock *vtime.Clock, rng *vtime.RNG) *Sim {
	return &Sim{ds: ds, reader: fs.Reader(clock, rng), sizes: sizes}
}

// Len returns the number of samples.
func (s *Sim) Len() int { return s.ds.Len() }

// AppendSampleTimed charges the modeled open+read of one sample file,
// appends the generated sample's wire bytes to buf, checked as a Store
// checks them (graph.CheckEncoded), and returns the charged duration.
func (s *Sim) AppendSampleTimed(buf []byte, id int64) ([]byte, time.Duration, error) {
	if id < 0 || id >= int64(s.ds.Len()) {
		return buf, 0, fmt.Errorf("pff: sample %d out of range [0,%d)", id, s.ds.Len())
	}
	cost, err := s.reader.ReadAt(simPath(s.ds.Name(), id), 0, s.sizes[id])
	if err != nil {
		return buf, 0, err
	}
	out, err := s.ds.AppendSample(buf, id)
	if err == nil {
		err = graph.CheckEncoded(out[len(buf):], id)
	}
	if err != nil {
		return buf, 0, fmt.Errorf("pff: %w", err)
	}
	return out, cost, nil
}
