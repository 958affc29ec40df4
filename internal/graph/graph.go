// Package graph defines the atomistic graph sample model used throughout
// DDStore: a molecule or crystal configuration with atoms as nodes and
// interatomic bonds as edges, node/edge features, and one or more prediction
// targets (energy, HOMO-LUMO gap, UV-vis spectrum).
//
// The package also provides a compact binary codec (the serialized form
// stored in PFF files, CFF containers, and DDStore memory windows) and
// mini-batch assembly (the disjoint-union batching used by graph neural
// networks).
package graph

import (
	"encoding/binary"
	"fmt"
)

// Graph is one atomistic sample.
type Graph struct {
	// ID is the global sample index within its dataset.
	ID int64
	// NumNodes is the number of atoms.
	NumNodes int
	// NodeFeatDim is the per-atom feature width; NodeFeat is row-major
	// NumNodes × NodeFeatDim.
	NodeFeatDim int
	NodeFeat    []float32
	// EdgeSrc/EdgeDst hold one directed edge per entry (undirected bonds are
	// stored as two directed edges).
	EdgeSrc []int32
	EdgeDst []int32
	// EdgeFeatDim is the per-edge feature width; EdgeFeat is row-major
	// len(EdgeSrc) × EdgeFeatDim. May be zero.
	EdgeFeatDim int
	EdgeFeat    []float32
	// Pos holds atom coordinates, NumNodes × 3, or nil.
	Pos []float32
	// Y is the prediction target vector (length = dataset's output dim).
	Y []float32
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.EdgeSrc) }

// Codec constants.
const (
	codecMagic   = 0xDD57 // "DDSTore"
	codecVersion = 1
)

// EncodedSize returns the exact number of bytes Encode will produce.
func (g *Graph) EncodedSize() int {
	n := 4 + 8 // magic+version, id
	n += 6 * 4 // numNodes, nodeFeatDim, numEdges, edgeFeatDim, hasPos, lenY
	n += 4 * len(g.NodeFeat)
	n += 4 * len(g.EdgeSrc)
	n += 4 * len(g.EdgeDst)
	n += 4 * len(g.EdgeFeat)
	n += 4 * len(g.Pos)
	n += 4 * len(g.Y)
	return n
}

// Encode serializes the graph into a fresh buffer.
func (g *Graph) Encode() []byte {
	return g.AppendTo(make([]byte, 0, g.EncodedSize()))
}

// AppendTo serializes the graph onto buf and returns the extended slice.
// Layout (little endian): u16 magic, u16 version, i64 id, u32 numNodes,
// u32 nodeFeatDim, u32 numEdges, u32 edgeFeatDim, u32 hasPos, u32 lenY,
// then the float32/int32 payloads in declaration order. Each tensor is
// appended as its bytes (words.go); a big-endian host then swaps the
// appended words in place.
func (g *Graph) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, codecMagic)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.NumNodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.NodeFeatDim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.EdgeSrc)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.EdgeFeatDim))
	hasPos := uint32(0)
	if g.Pos != nil {
		hasPos = 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, hasPos)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Y)))
	payload := len(buf)
	buf = append(buf, wordBytes(g.NodeFeat)...)
	buf = append(buf, wordBytes(g.EdgeSrc)...)
	buf = append(buf, wordBytes(g.EdgeDst)...)
	buf = append(buf, wordBytes(g.EdgeFeat)...)
	buf = append(buf, wordBytes(g.Pos)...)
	buf = append(buf, wordBytes(g.Y)...)
	if !hostLittleEndian {
		swapWords(buf[payload:])
	}
	return buf
}

// headerSize is the fixed codec header: u16 magic, u16 version, i64 id,
// then six u32 counts.
const headerSize = 4 + 8 + 6*4

// header is the parsed fixed-size codec header plus the derived total
// encoded size. Parsing it validates everything about an encoded graph
// except the tensor payload bytes themselves, so a header alone is enough
// to accept a sample onto the hot path and defer materialization. The
// hasPos word is not kept: the positions are whatever words the other five
// tensors leave of the payload (fill), which keeps a Lazy at 112 bytes.
type header struct {
	id          int64
	numNodes    int
	nodeFeatDim int
	numEdges    int
	edgeFeatDim int
	lenY        int
	want        int // total encoded bytes including the header
}

// parseHeader validates and reads the codec header at the front of data,
// including the payload-length guard against corrupt headers requesting
// absurd allocations. It allocates nothing.
//
// The header is the only bounds authority materialize has, so the payload
// length is summed where it cannot wrap: every count is a u32, so a product
// of two fits a uint64, and the sum of the five terms is believed only once
// each product is known to be within the words actually present.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("graph: truncated header: %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint16(data[0:]); m != codecMagic {
		return h, fmt.Errorf("graph: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(data[2:]); v != codecVersion {
		return h, fmt.Errorf("graph: unsupported codec version %d", v)
	}
	h.id = int64(binary.LittleEndian.Uint64(data[4:]))
	numNodes := uint64(binary.LittleEndian.Uint32(data[12:]))
	nodeFeatDim := uint64(binary.LittleEndian.Uint32(data[16:]))
	numEdges := uint64(binary.LittleEndian.Uint32(data[20:]))
	edgeFeatDim := uint64(binary.LittleEndian.Uint32(data[24:]))
	hasPos := binary.LittleEndian.Uint32(data[28:]) != 0
	lenY := uint64(binary.LittleEndian.Uint32(data[32:]))

	nodeWords, edgeFeatWords, posWords := numNodes*nodeFeatDim, numEdges*edgeFeatDim, uint64(0)
	if hasPos {
		posWords = 3 * numNodes
	}
	// present is under 2^61, so three products within it plus two u32
	// counts cannot wrap either.
	present := uint64(len(data)-headerSize) / 4
	words := nodeWords + 2*numEdges + edgeFeatWords + posWords + lenY
	if max(nodeWords, edgeFeatWords, posWords) > present || words > present {
		return h, fmt.Errorf("graph: header (%d nodes × %d, %d edges × %d, pos %t, %d targets) needs more than the %d bytes present",
			numNodes, nodeFeatDim, numEdges, edgeFeatDim, hasPos, lenY, len(data))
	}
	h.numNodes, h.nodeFeatDim = int(numNodes), int(nodeFeatDim)
	h.numEdges, h.edgeFeatDim = int(numEdges), int(edgeFeatDim)
	h.lenY = int(lenY)
	h.want = headerSize + 4*int(words)
	// A count that contributes no words (a zero feature width) is bounded
	// only by its u32, which a 32-bit int cannot hold.
	if h.numNodes < 0 || h.nodeFeatDim < 0 || h.edgeFeatDim < 0 {
		return h, fmt.Errorf("graph: header count overflows int (%d nodes × %d, edge width %d)", numNodes, nodeFeatDim, edgeFeatDim)
	}
	return h, nil
}

// payloadWords is the number of 32-bit words the six tensors take.
func (h *header) payloadWords() int { return (h.want - headerSize) / 4 }

// materialize builds a standalone Graph for a validated header: its own
// Graph and its own slab, one allocation each, and one bulk copy of the
// payload (cloneWords). A view of a load takes both from its load's slabs
// instead (Slabs.take); either way fill makes the tensors.
func (h *header) materialize(data []byte) *Graph {
	g := new(Graph)
	h.fill(g, cloneWords(data[headerSize:h.want]))
	return g
}

// fill makes g the graph of h over w, the payload's words already copied
// out of the wire bytes into a slab the codec allocated: the six tensors are
// typed views of w (words.go), never of the wire bytes, so the Graph owns
// its memory. Views are capacity-clipped so appending to one tensor can
// never scribble over its slab neighbours — in a load's shared slab, over
// another sample's — and zero-length tensors stay nil exactly as the
// per-tensor decoder produced them. The positions are the words the other
// five tensors leave.
func (h *header) fill(g *Graph, w []uint32) {
	if !hostLittleEndian {
		swapWords(wordBytes(w))
	}
	*g = Graph{
		ID:          h.id,
		NumNodes:    h.numNodes,
		NodeFeatDim: h.nodeFeatDim,
		EdgeFeatDim: h.edgeFeatDim,
	}
	nNode := h.numNodes * h.nodeFeatDim
	nEdgeFeat := h.numEdges * h.edgeFeatDim
	nPos := len(w) - nNode - 2*h.numEdges - nEdgeFeat - h.lenY
	g.NodeFeat, w = viewWords[float32](w[:nNode]), w[nNode:]
	g.EdgeSrc, w = viewWords[int32](w[:h.numEdges]), w[h.numEdges:]
	g.EdgeDst, w = viewWords[int32](w[:h.numEdges]), w[h.numEdges:]
	g.EdgeFeat, w = viewWords[float32](w[:nEdgeFeat]), w[nEdgeFeat:]
	g.Pos, w = viewWords[float32](w[:nPos]), w[nPos:]
	g.Y = viewWords[float32](w[:h.lenY])
}

// parseExact parses the header of data, which must hold exactly one
// encoded graph: parseHeader plus no bytes past the graph.
func parseExact(data []byte) (header, error) {
	h, err := parseHeader(data)
	if err == nil && len(data) != h.want {
		err = fmt.Errorf("graph: %d trailing bytes after decoded graph", len(data)-h.want)
	}
	return h, err
}

// Decode deserializes one graph from data, which must contain exactly one
// encoded graph (as produced by Encode).
func Decode(data []byte) (*Graph, error) {
	h, err := parseExact(data)
	if err != nil {
		return nil, err
	}
	return h.materialize(data), nil
}

// CheckEncoded accepts raw only if it is exactly one encoded graph holding
// sample id: the header parse and length check Decode makes, without
// materializing, plus the id. Every sample a Packer takes in passes it, and
// so does every sample a file store hands out, so bytes that Decode would
// refuse, or that hold another sample, are neither packed nor served.
func CheckEncoded(raw []byte, id int64) error {
	h, err := parseExact(raw)
	if err != nil {
		return fmt.Errorf("graph: sample %d: %w", id, err)
	}
	if h.id != id {
		return fmt.Errorf("graph: bytes for sample %d hold sample %d", id, h.id)
	}
	return nil
}

// Batch is the disjoint union of several graphs: node and edge arrays are
// concatenated with edge indices shifted by the node offsets, exactly like
// PyTorch Geometric's Batch. The GNN consumes Batches.
type Batch struct {
	NumGraphs   int
	NumNodes    int
	NodeFeatDim int
	NodeFeat    []float32
	EdgeSrc     []int32
	EdgeDst     []int32
	EdgeFeatDim int
	EdgeFeat    []float32
	// GraphIndex maps each node to the index of its graph within the batch
	// (used by the readout/pooling layer).
	GraphIndex []int32
	// YDim is the per-graph target width; Y is NumGraphs × YDim.
	YDim int
	Y    []float32
	// IDs are the global sample ids of the member graphs.
	IDs []int64
}

// NewBatch assembles graphs into one batch. All graphs must share feature
// and target dimensions, and every edge must join two of its own graph's
// nodes: the codec bounds an edge count by the bytes present but not an
// endpoint by the node count, and a batch edge past its graph's nodes would
// join another graph's node, or index outside the batch. The float tensors
// (NodeFeat, EdgeFeat, Y) share one slab and the index tensors (EdgeSrc,
// EdgeDst, GraphIndex) another, each view capacity-clipped so appending to
// one cannot overwrite the next.
func NewBatch(graphs []*Graph) (*Batch, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("graph: empty batch")
	}
	first := graphs[0].shape()
	var nodes, nNode, nEdge, nEdgeFeat int
	for _, g := range graphs {
		if g.NodeFeatDim != first.nodeFeatDim || g.EdgeFeatDim != first.edgeFeatDim || len(g.Y) != first.yDim {
			return nil, first.mixed(g.shape())
		}
		nodes, nNode, nEdge, nEdgeFeat = nodes+g.NumNodes, nNode+len(g.NodeFeat), nEdge+len(g.EdgeSrc), nEdgeFeat+len(g.EdgeFeat)
	}
	b := carve(len(graphs), first, shape{nodes: nodes, nodeFeat: nNode, edges: nEdge, edgeFeat: nEdgeFeat})
	nodeFeat, edgeFeat, y, edgeSrc, edgeDst, index := b.NodeFeat, b.EdgeFeat, b.Y, b.EdgeSrc, b.EdgeDst, b.GraphIndex
	offset := int32(0)
	for gi, g := range graphs {
		nodeFeat = nodeFeat[copy(nodeFeat, g.NodeFeat):]
		edgeFeat = edgeFeat[copy(edgeFeat, g.EdgeFeat):]
		y = y[copy(y, g.Y):]
		n := len(g.EdgeSrc)
		top := max(addOffset(edgeSrc, g.EdgeSrc, offset), addOffset(edgeDst, g.EdgeDst[:n], offset))
		if n > 0 && top >= uint32(g.NumNodes) {
			return nil, endpointError(g.ID, top, g.NumNodes)
		}
		edgeSrc, edgeDst, index = edgeSrc[n:], edgeDst[n:], b.record(gi, g.ID, index, g.NumNodes)
		offset += int32(g.NumNodes)
	}
	return b, nil
}

// BatchFromWire is NewBatch over a load's views, built straight from their
// wire bytes with the same checks and errors: the size pass reads the
// validated headers, and each tensor is one copy out of the payload into
// the batch's slabs (words are never viewed in the bytes, words.go), where
// the edges are offset in place; the positions are skipped. No Graph is
// made; a view that is already materialized is copied from its Graph.
// Every view is consumed — released once its tensors are copied, and all
// of them on error — so the caller drops the views either way.
func BatchFromWire(views []*Lazy) (b *Batch, err error) {
	defer func() {
		if err != nil {
			for _, v := range views {
				v.Release()
			}
		}
	}()
	if len(views) == 0 {
		return nil, fmt.Errorf("graph: empty batch")
	}
	first := views[0].shape()
	var nodes, nNode, nEdge, nEdgeFeat int
	for _, v := range views {
		s := v.shape()
		if s.nodeFeatDim != first.nodeFeatDim || s.edgeFeatDim != first.edgeFeatDim || s.yDim != first.yDim {
			return nil, first.mixed(s)
		}
		nodes, nNode, nEdge, nEdgeFeat = nodes+s.nodes, nNode+s.nodeFeat, nEdge+s.edges, nEdgeFeat+s.edgeFeat
	}
	b = carve(len(views), first, shape{nodes: nodes, nodeFeat: nNode, edges: nEdge, edgeFeat: nEdgeFeat})
	nodeFeat, edgeFeat, y, edgeSrc, edgeDst, index := b.NodeFeat, b.EdgeFeat, b.Y, b.EdgeSrc, b.EdgeDst, b.GraphIndex
	offset := int32(0)
	for gi, v := range views {
		h, g := &v.h, v.g
		n, vNodes, id := h.numEdges, h.numNodes, h.id
		src, dst := edgeSrc[:n], edgeDst[:n]
		if v.data != nil {
			nf, ef := vNodes*h.nodeFeatDim, n*h.edgeFeatDim
			p := copyWire(nodeFeat[:nf], v.data[headerSize:h.want])
			p = copyWire(edgeFeat[:ef], copyWire(dst, copyWire(src, p)))
			copyWire(y[:h.lenY], p[len(p)-4*h.lenY:])
			nodeFeat, edgeFeat, y = nodeFeat[nf:], edgeFeat[ef:], y[h.lenY:]
		} else { // a trainer may have replaced a tensor: go by the Graph's own lengths
			n, vNodes, id = len(g.EdgeSrc), g.NumNodes, g.ID
			src, dst = edgeSrc[:copy(edgeSrc, g.EdgeSrc)], edgeDst[:copy(edgeDst, g.EdgeDst[:n])]
			nodeFeat = nodeFeat[copy(nodeFeat, g.NodeFeat):]
			edgeFeat = edgeFeat[copy(edgeFeat, g.EdgeFeat):]
			y = y[copy(y, g.Y):]
		}
		v.Release()
		top := max(addOffset(src, src, offset), addOffset(dst, dst, offset))
		if n > 0 && top >= uint32(vNodes) {
			return nil, endpointError(id, top, vNodes)
		}
		edgeSrc, edgeDst, index = edgeSrc[n:], edgeDst[n:], b.record(gi, id, index, vNodes)
		offset += int32(vNodes)
	}
	return b, nil
}

// shape is what a size pass reads of one sample: its dims, which every
// sample of a batch shares, and the lengths of its tensors.
type shape struct {
	nodeFeatDim, edgeFeatDim, yDim   int
	nodes, nodeFeat, edges, edgeFeat int
}

func (g *Graph) shape() shape {
	return shape{g.NodeFeatDim, g.EdgeFeatDim, len(g.Y), g.NumNodes, len(g.NodeFeat), len(g.EdgeSrc), len(g.EdgeFeat)}
}

func (l *Lazy) shape() shape {
	if l.data == nil {
		return l.g.shape() // a released view has no Graph either: consuming it twice panics, as Graph does
	}
	h := &l.h
	return shape{h.nodeFeatDim, h.edgeFeatDim, h.lenY, h.numNodes, h.numNodes * h.nodeFeatDim, h.numEdges, h.numEdges * h.edgeFeatDim}
}

// mixed is the error for a sample whose dims are not the first's.
func (first *shape) mixed(s shape) error {
	if s.nodeFeatDim != first.nodeFeatDim {
		return fmt.Errorf("graph: batch mixes node feature dims %d and %d", first.nodeFeatDim, s.nodeFeatDim)
	}
	if s.edgeFeatDim != first.edgeFeatDim {
		return fmt.Errorf("graph: batch mixes edge feature dims %d and %d", first.edgeFeatDim, s.edgeFeatDim)
	}
	return fmt.Errorf("graph: batch mixes target dims %d and %d", first.yDim, s.yDim)
}

// carve makes a batch of n samples with the first's dims: its two slabs,
// sized by the summed tensor lengths total, and its IDs.
func carve(n int, first, total shape) *Batch {
	b := &Batch{NumGraphs: n, NumNodes: total.nodes, NodeFeatDim: first.nodeFeatDim, EdgeFeatDim: first.edgeFeatDim, YDim: first.yDim}
	nNode, nEdge, nEdgeFeat, nY := total.nodeFeat, total.edges, total.edgeFeat, n*first.yDim
	floats := make([]float32, nNode+nEdgeFeat+nY)
	b.NodeFeat, floats = floats[:nNode:nNode], floats[nNode:]
	b.EdgeFeat, floats = floats[:nEdgeFeat:nEdgeFeat], floats[nEdgeFeat:]
	b.Y = floats[:nY:nY]
	ints := make([]int32, 2*nEdge+b.NumNodes)
	b.EdgeSrc, ints = ints[:nEdge:nEdge], ints[nEdge:]
	b.EdgeDst, ints = ints[:nEdge:nEdge], ints[nEdge:]
	b.GraphIndex = ints[:b.NumNodes:b.NumNodes]
	b.IDs = make([]int64, n)
	return b
}

// record sets sample gi's id and its nodes' graph index, the first nodes of
// index, and returns the rest of index.
func (b *Batch) record(gi int, id int64, index []int32, nodes int) []int32 {
	b.IDs[gi] = id
	mine := index[:nodes]
	for i := range mine {
		mine[i] = int32(gi)
	}
	return index[nodes:]
}

func endpointError(id int64, top uint32, nodes int) error {
	return fmt.Errorf("graph: sample %d has an edge endpoint %d outside its %d nodes", id, int32(top), nodes)
}

// addOffset writes src[i]+offset to dst[i] for every element of src; dst is
// at least as long. It returns the largest element of src read as a uint32,
// so one comparison with the node count rejects an endpoint that is negative
// or past the last node (0 for an empty src). It takes four elements a step,
// each indexed below a re-sliced length, so no element pays a bounds check
// and the loop's own bookkeeping — which the compiler neither unrolls nor
// vectorizes away — is paid once in four. The maximum is kept in one
// accumulator per lane: a single running maximum would make every element
// wait on the previous element's comparison. Every word is read into a
// local once, before its store: dst may be src itself (BatchFromWire offsets
// the edges in place), and read through src again after the store, a word
// would come back offset.
func addOffset(dst, src []int32, offset int32) uint32 {
	dst = dst[:len(src)]
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s, d := src[i:i+4:i+4], dst[i:i+4:i+4]
		a, b, c, e := s[0], s[1], s[2], s[3]
		d[0], d[1], d[2], d[3] = a+offset, b+offset, c+offset, e+offset
		m0, m1 = max(m0, uint32(a)), max(m1, uint32(b))
		m2, m3 = max(m2, uint32(c)), max(m3, uint32(e))
	}
	for ; i < len(src); i++ {
		v := src[i]
		dst[i] = v + offset
		m0 = max(m0, uint32(v))
	}
	return max(m0, m1, m2, m3)
}

// NumEdges returns the number of directed edges in the batch.
func (b *Batch) NumEdges() int { return len(b.EdgeSrc) }

// Bytes returns the approximate in-memory footprint of the batch payload,
// used for cost accounting.
func (b *Batch) Bytes() int64 {
	return int64(4 * (len(b.NodeFeat) + len(b.EdgeSrc) + len(b.EdgeDst) +
		len(b.EdgeFeat) + len(b.GraphIndex) + len(b.Y)))
}
