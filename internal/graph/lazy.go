package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ref is the reference a Lazy may hold on the buffer backing its encoded
// bytes. It is declared structurally (rather than importing the arena) so
// the codec stays dependency-free; *bufarena.Buf satisfies it, as does the
// cache package's identical interface.
type Ref interface {
	Retain()
	Release()
}

// Lazy is a validated-but-not-materialized graph: the codec header has
// been fully checked (magic, version, counts, exact payload length) but
// the tensors still live in the encoded wire bytes. This is what the hot
// read path produces per sample — validation costs one allocation (the
// Lazy itself, or none for a view of a load: a load's views are one slab)
// — and the tensors stay in the bytes until they are copied out, never
// viewed: into a batch by BatchFromWire, or into a Graph by the first Graph
// call. Samples that are fetched for cache warming, prefetched
// speculatively, or re-encoded verbatim never pay
// decode cost at all, which is why the Lazy holds only a pointer to the
// Graph: most of them on a cache-heavy path never grow one (TestLazySize).
//
// A Lazy may hold one reference on the buffer backing data (ref != nil
// when the bytes came from the pooled arena). The reference is released as
// soon as it is no longer needed: by Graph on first materialization, by
// BatchFromWire once the tensors are in the batch, or by Release if the
// tensors are never touched.
//
// A view of a load (Slabs) materializes into its load's two slabs, so the
// load's Graphs cost two allocations together rather than two each; a
// standalone Lazy (DecodeLazy, Clone) into a Graph and a slab of its own.
// A single Lazy is not safe for concurrent use; callers serialize access
// per value. Graph and Release calls on different views of one load may
// run concurrently.
type Lazy struct {
	data []byte
	ref  Ref
	h    header
	g    *Graph
	slab *Slabs // the load whose slabs Graph takes from, or nil
}

// Slabs is what the views of one load share: one []uint32 tensor slab and
// one []Graph slab. The first Graph call on any of the views sizes both to
// cover the views that still hold bytes and are not yet materialized; each
// Graph call then takes its Graph and its capacity-clipped words from them,
// copies its payload once, and releases its buffer reference, as a
// standalone Lazy does. A load that never materializes allocates neither,
// so the fetch engine holds its Slabs by value in the load's own state.
//
// The trade: the tensors of a kept Graph are views of the load's slab, so
// keeping one Graph keeps every Graph of its load alive, tensors included.
// The training loaders never materialize (BatchFromWire); the benchmark's
// batch worker hands its graphs to NewBatch, which copies them, and drops
// them.
type Slabs struct {
	views []Lazy
	// mu orders a Release before sizing with the sizing scan, which reads
	// every view.
	mu     sync.Mutex
	sized  atomic.Bool
	words  []uint32
	graphs []Graph
	// next hands out the slabs, in the order the views materialize.
	nextWord, nextGraph atomic.Int64
}

// Bind makes views the views of this load. s must not be in use.
func (s *Slabs) Bind(views []Lazy) { s.views = views }

// DecodeInto validates one encoded graph into the load's view i, as
// DecodeLazy does, so a load's samples cost no allocation for their views.
// The view is overwritten on success and left alone on error. It joins the
// load's slabs unless they are already sized: a view decoded after that
// materializes into a slab of its own.
func (s *Slabs) DecodeInto(i int, data []byte, ref Ref) error {
	dst := &s.views[i]
	if err := decodeLazyInto(dst, data, ref); err != nil {
		return err
	}
	dst.slab = s.join()
	return nil
}

// join returns s for a view that may take from the slabs, which is one
// made before they are sized.
func (s *Slabs) join() *Slabs {
	if s == nil || s.sized.Load() {
		return nil
	}
	return s
}

// take returns a Graph and n capacity-clipped words from the load's slabs,
// sizing them on the first call, or nil for a standalone view (s is nil)
// and when they have no room: a view that joined without being one of the
// load's views.
func (s *Slabs) take(n int) (*Graph, []uint32) {
	if s == nil {
		return nil, nil
	}
	if !s.sized.Load() {
		s.size()
	}
	gi, end := s.nextGraph.Add(1)-1, s.nextWord.Add(int64(n))
	if gi >= int64(len(s.graphs)) || end > int64(len(s.words)) {
		return nil, nil
	}
	return &s.graphs[gi], s.words[end-int64(n) : end : end]
}

// size allocates the slabs for every view of the load that still holds
// bytes and is not yet materialized, once.
func (s *Slabs) size() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sized.Load() {
		return
	}
	var words, graphs int
	for i := range s.views {
		if v := &s.views[i]; v.slab == s && v.data != nil && v.g == nil {
			words, graphs = words+v.h.payloadWords(), graphs+1
		}
	}
	s.words, s.graphs = make([]uint32, words), make([]Graph, graphs)
	s.sized.Store(true)
}

// DecodeLazy validates one encoded graph without materializing tensors.
// data must contain exactly one encoded graph, as for Decode. If ref is
// non-nil the Lazy takes ownership of one reference on the buffer backing
// data and releases it when the bytes are no longer needed (first Graph
// call, or Release). On error no reference is taken: the caller keeps
// ownership.
func DecodeLazy(data []byte, ref Ref) (*Lazy, error) {
	l := new(Lazy)
	if err := decodeLazyInto(l, data, ref); err != nil {
		return nil, err
	}
	return l, nil
}

// decodeLazyInto is DecodeLazy into a Lazy the caller already has, as a
// standalone view; dst is overwritten on success and left alone on error.
func decodeLazyInto(dst *Lazy, data []byte, ref Ref) error {
	h, err := parseHeader(data)
	if err != nil {
		return err
	}
	if rest := len(data) - h.want; rest != 0 {
		return fmt.Errorf("graph: %d trailing bytes after decoded graph", rest)
	}
	*dst = Lazy{data: data, ref: ref, h: h}
	return nil
}

// ID returns the sample id from the header.
func (l *Lazy) ID() int64 { return l.h.id }

// EncodedSize returns the encoded byte length.
func (l *Lazy) EncodedSize() int { return l.h.want }

// Ref returns the buffer reference the Lazy holds, or nil. The Lazy keeps
// ownership; callers that want their own alias must Retain.
func (l *Lazy) Ref() Ref { return l.ref }

// AppendTo appends the encoded bytes onto buf — a bit-identical re-encode
// with no decode round trip. It must not be called after Release unless
// the graph was materialized first (the backing bytes are gone).
func (l *Lazy) AppendTo(buf []byte) []byte {
	if l.data == nil {
		return l.g.AppendTo(buf)
	}
	return append(buf, l.data...)
}

// Clone returns an independent, standalone view over the same encoded
// bytes, holding its own (newly retained) reference on the backing buffer,
// so each view is consumed independently — releasing one view cannot
// invalidate another. Cloning an already-materialized view shares the
// (immutable) *Graph; cloning a released, unmaterialized view panics.
func (l *Lazy) Clone() *Lazy {
	c := new(Lazy)
	l.CloneInto(c)
	c.slab = nil
	return c
}

// CloneInto is Clone into another view of the same load — duplicate batch
// positions each get one — and dst is overwritten. The clone materializes
// into the load's slabs, unless they are already sized.
func (l *Lazy) CloneInto(dst *Lazy) {
	if l.data == nil {
		if l.g == nil {
			panic("graph: Clone of a released Lazy")
		}
		*dst = Lazy{h: l.h, g: l.g}
		return
	}
	if l.ref != nil {
		l.ref.Retain()
	}
	*dst = Lazy{data: l.data, ref: l.ref, h: l.h, slab: l.slab.join()}
}

// Graph materializes the tensors on first call and memoizes the result;
// the buffer reference (if any) is released at that point since the
// encoded bytes are no longer needed. A view of a load takes its Graph and
// its words from the load's slabs (Slabs), a standalone Lazy allocates its
// own; either way the payload is copied once. Calls on different views of
// one load may run concurrently, calls on one view may not.
func (l *Lazy) Graph() *Graph {
	if l.g == nil {
		if g, w := l.slab.take(l.h.payloadWords()); g != nil {
			copy(wordBytes(w), l.data[headerSize:l.h.want])
			l.h.fill(g, w)
			l.g = g
		} else {
			l.g = l.h.materialize(l.data)
		}
		l.data = nil
		l.releaseRef()
	}
	return l.g
}

// Release drops the Lazy's buffer reference without materializing, for
// samples whose tensors will never be touched. Idempotent; a later Graph
// call is only valid if the graph was already materialized.
func (l *Lazy) Release() {
	if s := l.slab; s != nil && !s.sized.Load() {
		s.mu.Lock()
		l.data = nil
		s.mu.Unlock()
	} else {
		l.data = nil
	}
	l.releaseRef()
}

func (l *Lazy) releaseRef() {
	if l.ref != nil {
		l.ref.Release()
		l.ref = nil
	}
}
