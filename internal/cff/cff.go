// Package cff implements the containerized file format baseline (the
// paper's "CFF", modeled after ADIOS): many samples packed into a small
// number of container subfiles, each carrying a footer index mapping sample
// id to (offset, length). Containers avoid PFF's per-sample metadata storm,
// but random shuffled reads still turn into seeks inside shared files, and
// thousands of processes seeking in the same containers congest the
// filesystem.
//
// As with package pff, Store is the real on-disk implementation and Sim is
// the simulated-filesystem implementation used by the at-scale experiments.
package cff

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
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

const (
	containerMagic   = 0xADD105C0
	containerVersion = 1
	metaFile         = "meta.json"
)

// Meta describes a CFF container directory.
type Meta struct {
	Name        string `json:"name"`
	NumGraphs   int    `json:"num_graphs"`
	NumParts    int    `json:"num_parts"`
	NodeFeatDim int    `json:"node_feat_dim"`
	EdgeFeatDim int    `json:"edge_feat_dim"`
	OutputDim   int    `json:"output_dim"`
}

// indexEntry locates one sample inside a part.
type indexEntry struct {
	ID     int64
	Offset int64
	Length int32
}

func partPath(dir string, part int) string {
	return filepath.Join(dir, partFile(part))
}

// partFile is a part's file name, "part-%04d.ddc".
func partFile(part int) string {
	n := strconv.Itoa(part)
	if len(n) < 4 {
		n = "0000"[len(n):] + n
	}
	return "part-" + n + ".ddc"
}

// partRange returns the sample-id range [lo, hi) stored in a part when
// total samples are split evenly over numParts parts.
func partRange(total, numParts, part int) (int64, int64) {
	per := total / numParts
	rem := total % numParts
	lo := part*per + min(part, rem)
	hi := lo + per
	if part < rem {
		hi++
	}
	return int64(lo), int64(hi)
}

// Write materializes the dataset as numParts container subfiles under dir.
func Write(dir string, ds *datasets.Dataset, numParts int) error {
	if numParts < 1 {
		return fmt.Errorf("cff: numParts %d must be positive", numParts)
	}
	if numParts > ds.Len() && ds.Len() > 0 {
		numParts = ds.Len()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for part := 0; part < numParts; part++ {
		lo, hi := partRange(ds.Len(), numParts, part)
		if err := writePart(partPath(dir, part), ds, lo, hi); err != nil {
			return err
		}
	}
	meta := Meta{
		Name:        ds.Name(),
		NumGraphs:   ds.Len(),
		NumParts:    numParts,
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

// writePart streams samples [lo, hi) into one container file:
//
//	u32 magic, u32 version,
//	sample payloads (concatenated encoded graphs),
//	index entries (id i64, offset i64, length i32) × count,
//	i64 index offset, u32 count, u32 magic.
func writePart(path string, ds *datasets.Dataset, lo, hi int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:], containerMagic)
	binary.LittleEndian.PutUint32(header[4:], containerVersion)
	if _, err := f.Write(header[:]); err != nil {
		return err
	}
	offset := int64(len(header))
	index := make([]indexEntry, 0, hi-lo)
	var data []byte
	for id := lo; id < hi; id++ {
		if data, err = ds.AppendSample(data[:0], id); err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			return err
		}
		index = append(index, indexEntry{ID: id, Offset: offset, Length: int32(len(data))})
		offset += int64(len(data))
	}
	footer := make([]byte, 0, len(index)*20+16)
	for _, e := range index {
		footer = binary.LittleEndian.AppendUint64(footer, uint64(e.ID))
		footer = binary.LittleEndian.AppendUint64(footer, uint64(e.Offset))
		footer = binary.LittleEndian.AppendUint32(footer, uint32(e.Length))
	}
	footer = binary.LittleEndian.AppendUint64(footer, uint64(offset))
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(index)))
	footer = binary.LittleEndian.AppendUint32(footer, containerMagic)
	_, err = f.Write(footer)
	return err
}

// readPartIndex loads a container's footer index.
func readPartIndex(path string) ([]indexEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 24 {
		return nil, fmt.Errorf("cff: %s too small (%d bytes)", path, st.Size())
	}
	var tail [16]byte
	if _, err := f.ReadAt(tail[:], st.Size()-16); err != nil {
		return nil, err
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail[0:]))
	count := int(binary.LittleEndian.Uint32(tail[8:]))
	if magic := binary.LittleEndian.Uint32(tail[12:]); magic != containerMagic {
		return nil, fmt.Errorf("cff: %s bad footer magic %#x", path, magic)
	}
	if indexOff < 8 || indexOff+int64(count)*20+16 != st.Size() {
		return nil, fmt.Errorf("cff: %s corrupt index geometry", path)
	}
	raw := make([]byte, count*20)
	if _, err := f.ReadAt(raw, indexOff); err != nil {
		return nil, err
	}
	index := make([]indexEntry, count)
	for i := range index {
		p := raw[i*20:]
		index[i] = indexEntry{
			ID:     int64(binary.LittleEndian.Uint64(p[0:])),
			Offset: int64(binary.LittleEndian.Uint64(p[8:])),
			Length: int32(binary.LittleEndian.Uint32(p[16:])),
		}
	}
	return index, nil
}

// Store reads a real CFF directory. The part indexes are loaded once at
// Open; sample reads are a single positional read.
type Store struct {
	dir   string
	meta  Meta
	parts []*os.File
	// loc maps sample id to its location.
	loc map[int64]location
}

type location struct {
	part   int
	offset int64
	length int32
}

// Open opens a CFF directory produced by Write.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("cff: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("cff: corrupt metadata: %w", err)
	}
	s := &Store{dir: dir, meta: meta, loc: make(map[int64]location, meta.NumGraphs)}
	for part := 0; part < meta.NumParts; part++ {
		index, err := readPartIndex(partPath(dir, part))
		if err != nil {
			s.Close()
			return nil, err
		}
		f, err := os.Open(partPath(dir, part))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.parts = append(s.parts, f)
		for _, e := range index {
			s.loc[e.ID] = location{part: part, offset: e.Offset, length: e.Length}
		}
	}
	if len(s.loc) != meta.NumGraphs {
		s.Close()
		return nil, fmt.Errorf("cff: index has %d samples, metadata says %d", len(s.loc), meta.NumGraphs)
	}
	return s, nil
}

// Close releases the container file handles.
func (s *Store) Close() error {
	var first error
	for _, f := range s.parts {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.parts = nil
	return first
}

// Name returns the dataset name.
func (s *Store) Name() string { return s.meta.Name }

// Len returns the number of samples.
func (s *Store) Len() int { return s.meta.NumGraphs }

// AppendSample appends sample id to buf as stored, with no decode: one
// positional read inside the owning container. Bytes that are not exactly
// one encoded graph holding id (graph.CheckEncoded) are refused, and buf
// comes back as it was.
func (s *Store) AppendSample(buf []byte, id int64) ([]byte, error) {
	l, ok := s.loc[id]
	if !ok {
		return buf, fmt.Errorf("cff: sample %d not in index", id)
	}
	if l.length < 0 {
		return buf, fmt.Errorf("cff: sample %d: index length %d", id, l.length)
	}
	n := int(l.length)
	out := slices.Grow(buf, n)[:len(buf)+n]
	if got, err := s.parts[l.part].ReadAt(out[len(buf):], l.offset); got < n {
		return buf, fmt.Errorf("cff: sample %d: read %d of %d bytes: %w", id, got, n, err)
	}
	if err := graph.CheckEncoded(out[len(buf):], id); err != nil {
		return buf, fmt.Errorf("cff: %w", err)
	}
	return out, nil
}

// SimLayout is the container layout registered on a simulated filesystem:
// per-sample locations within virtual part files.
type SimLayout struct {
	NumParts int
	Loc      []location // indexed by sample id
	// partNames[p] is part p's file on the simulated filesystem,
	// "cff/<name>/part-%04d.ddc".
	partNames []string
}

// RegisterSim lays the dataset out into numParts virtual containers on the
// simulated filesystem, sized by pff.SampleSizes, and returns the layout
// (shared by all ranks).
func RegisterSim(fs *pfs.PFS, ds *datasets.Dataset, sizes []int64, numParts int) (*SimLayout, error) {
	if numParts < 1 {
		return nil, fmt.Errorf("cff: numParts %d must be positive", numParts)
	}
	if numParts > ds.Len() && ds.Len() > 0 {
		numParts = ds.Len()
	}
	if len(sizes) != ds.Len() {
		return nil, fmt.Errorf("cff: %d sizes for %d samples", len(sizes), ds.Len())
	}
	layout := &SimLayout{
		NumParts:  numParts,
		Loc:       make([]location, ds.Len()),
		partNames: make([]string, numParts),
	}
	for part := 0; part < numParts; part++ {
		layout.partNames[part] = "cff/" + ds.Name() + "/" + partFile(part)
		lo, hi := partRange(ds.Len(), numParts, part)
		offset := int64(8) // header
		for id := lo; id < hi; id++ {
			layout.Loc[id] = location{part: part, offset: offset, length: int32(sizes[id])}
			offset += sizes[id]
		}
		// index + footer
		offset += int64(hi-lo)*20 + 16
		fs.Create(layout.partNames[part], offset)
	}
	return layout, nil
}

// Sim models CFF reads for one rank on the simulated filesystem.
type Sim struct {
	ds     *datasets.Dataset
	layout *SimLayout
	reader *pfs.Reader
}

// NewSim creates a per-rank simulated CFF reader.
func NewSim(fs *pfs.PFS, ds *datasets.Dataset, layout *SimLayout, clock *vtime.Clock, rng *vtime.RNG) *Sim {
	return &Sim{ds: ds, layout: layout, reader: fs.Reader(clock, rng)}
}

// Len returns the number of samples.
func (s *Sim) Len() int { return s.ds.Len() }

// AppendSampleTimed charges the modeled positional read inside the owning
// container, appends the generated sample's wire bytes to buf, checked as
// a Store checks them (graph.CheckEncoded), and returns the charged
// duration.
func (s *Sim) AppendSampleTimed(buf []byte, id int64) ([]byte, time.Duration, error) {
	if id < 0 || id >= int64(s.ds.Len()) {
		return buf, 0, fmt.Errorf("cff: sample %d out of range [0,%d)", id, s.ds.Len())
	}
	l := s.layout.Loc[id]
	cost, err := s.reader.ReadAt(s.layout.partNames[l.part], l.offset, int64(l.length))
	if err != nil {
		return buf, 0, err
	}
	out, err := s.ds.AppendSample(buf, id)
	if err == nil {
		err = graph.CheckEncoded(out[len(buf):], id)
	}
	if err != nil {
		return buf, 0, fmt.Errorf("cff: %w", err)
	}
	return out, cost, nil
}
