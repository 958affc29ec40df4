package graph

import "fmt"

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
// Lazy itself) — and materialization is deferred to the first Graph call,
// typically batch assembly in the training loop: two more allocations (the
// Graph and one slab) and one copy of the payload out of the wire bytes,
// never a view of them. Samples that are fetched for cache warming,
// prefetched speculatively, or re-encoded verbatim never pay decode cost at
// all, which is why the Lazy holds only a pointer to the Graph: most of
// them on a cache-heavy path never grow one (TestLazySize).
//
// A Lazy may hold one reference on the buffer backing data (ref != nil
// when the bytes came from the pooled arena). The reference is released as
// soon as it is no longer needed: by Graph on first materialization, or by
// Release if the tensors are never touched. A Lazy is not safe for
// concurrent use; callers serialize access per value.
type Lazy struct {
	data []byte
	ref  Ref
	h    header
	g    *Graph
}

// DecodeLazy validates one encoded graph without materializing tensors.
// data must contain exactly one encoded graph, as for Decode. If ref is
// non-nil the Lazy takes ownership of one reference on the buffer backing
// data and releases it when the bytes are no longer needed (first Graph
// call, or Release). On error no reference is taken: the caller keeps
// ownership.
func DecodeLazy(data []byte, ref Ref) (*Lazy, error) {
	l := new(Lazy)
	if err := DecodeLazyInto(l, data, ref); err != nil {
		return nil, err
	}
	return l, nil
}

// DecodeLazyInto is DecodeLazy into a Lazy the caller already has — one
// element of a load's view slab — so a batch of samples costs one
// allocation for all their views. dst is overwritten on success and left
// alone on error.
func DecodeLazyInto(dst *Lazy, data []byte, ref Ref) error {
	h, err := parseHeader(data)
	if err != nil {
		return err
	}
	if rest := len(data) - h.want; rest != 0 {
		return fmt.Errorf("graph: %d trailing bytes after decoded graph", rest)
	}
	dst.data, dst.ref, dst.h, dst.g = data, ref, h, nil
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

// Clone returns an independent view over the same encoded bytes, holding
// its own (newly retained) reference on the backing buffer, so each view
// is consumed independently — duplicate batch positions each get a clone,
// and releasing one position cannot invalidate another. Cloning an
// already-materialized view shares the (immutable) *Graph; cloning a
// released, unmaterialized view panics.
func (l *Lazy) Clone() *Lazy {
	c := new(Lazy)
	l.CloneInto(c)
	return c
}

// CloneInto is Clone into a Lazy the caller already has (see
// DecodeLazyInto); dst is overwritten.
func (l *Lazy) CloneInto(dst *Lazy) {
	if l.data == nil {
		if l.g == nil {
			panic("graph: Clone of a released Lazy")
		}
		dst.data, dst.ref, dst.h, dst.g = nil, nil, l.h, l.g
		return
	}
	if l.ref != nil {
		l.ref.Retain()
	}
	dst.data, dst.ref, dst.h, dst.g = l.data, l.ref, l.h, nil
}

// Graph materializes the tensors on first call and memoizes the result;
// the buffer reference (if any) is released at that point since the
// encoded bytes are no longer needed.
func (l *Lazy) Graph() *Graph {
	if l.g == nil {
		l.g = l.h.materialize(l.data)
		l.data = nil
		l.releaseRef()
	}
	return l.g
}

// Release drops the Lazy's buffer reference without materializing, for
// samples whose tensors will never be touched. Idempotent; a later Graph
// call is only valid if the graph was already materialized.
func (l *Lazy) Release() {
	l.data = nil
	l.releaseRef()
}

func (l *Lazy) releaseRef() {
	if l.ref != nil {
		l.ref.Release()
		l.ref = nil
	}
}
