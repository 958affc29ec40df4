package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// packReserveAfter is how many samples a Packer takes in before their mean
// encoded size stands for the run's.
const packReserveAfter = 32

// packHeadroom is the percentage a run after the first reserves past the
// last run's mean, so runs of like samples fit the buffer a trim left.
const packHeadroom = 2

// Packed is a run of consecutive samples [Lo, Lo+len(Ends)) encoded back to
// back in one buffer: sample Lo+i is Buf[Ends[i-1]:Ends[i]], with Ends[-1]
// read as 0. A DDStore rank's RMA window and a serving owner's resident
// shard are each one, so a resident sample costs its bytes plus one 32-bit
// end offset, not a heap object of its own.
type Packed struct {
	Lo   int64
	Buf  []byte
	Ends []uint32
}

// Sample returns the encoded bytes of id, which must lie in the run,
// without copying. The slice is capacity-clipped: an append by the caller
// copies instead of overwriting the next sample.
func (p *Packed) Sample(id int64) []byte {
	i := id - p.Lo
	var start uint32
	if i > 0 {
		start = p.Ends[i-1]
	}
	end := p.Ends[i]
	return p.Buf[start:end:end]
}

// Packer builds a Packed from samples added in id order; the zero Packer
// is ready, and Start begins each run. A first run's buffer is reserved
// from the mean encoded size of the samples packed so far — first once
// packReserveAfter of them are in, again only if that estimate runs out —
// so a run is not re-copied at every step of append's geometric growth,
// and Finish trims what the estimate overshot by more than 1 % into an
// exact copy. A later run starts in the buffer the last trim left behind,
// reserved up front from the last run's mean plus packHeadroom, so packing
// shard after shard of like samples allocates once a shard.
type Packer struct {
	p     Packed
	n     int    // samples in the run
	spare []byte // the buffer a trim left behind, for the next run
	mean  int    // mean encoded size of the last run's samples
}

// Start begins the run [lo, hi).
func (pk *Packer) Start(lo, hi int64) {
	pk.n = int(hi - lo)
	buf := pk.spare[:0]
	if want := pk.mean * pk.n * (100 + packHeadroom) / 100; cap(buf) < want {
		buf = slices.Grow([]byte(nil), want)
	}
	pk.p = Packed{Lo: lo, Buf: buf, Ends: make([]uint32, 0, pk.n)}
	pk.spare = nil
}

// next is the id the packer takes next.
func (pk *Packer) next() int64 { return pk.p.Lo + int64(len(pk.p.Ends)) }

// reserve makes room for a sample of need bytes.
func (pk *Packer) reserve(need int) {
	p := &pk.p
	n := len(p.Ends)
	if n >= packReserveAfter && need > cap(p.Buf)-len(p.Buf) {
		mean := (len(p.Buf) + n - 1) / n
		p.Buf = slices.Grow(p.Buf, max(need, mean*(pk.n-n)))
	}
}

// end records the sample just appended; the run is refused once its bytes
// no longer fit the 32-bit end offsets.
func (pk *Packer) end(id int64) error {
	if uint64(len(pk.p.Buf)) > math.MaxUint32 {
		return fmt.Errorf("graph: packed run from %d passes 4 GiB at sample %d", pk.p.Lo, id)
	}
	pk.p.Ends = append(pk.p.Ends, uint32(len(pk.p.Buf)))
	return nil
}

// Add encodes g as the run's next sample, refusing a sample whose ID is
// not the id the run expects.
func (pk *Packer) Add(g *Graph) error {
	id := pk.next()
	if g.ID != id {
		return fmt.Errorf("graph: source returned sample %d for id %d", g.ID, id)
	}
	pk.reserve(g.EncodedSize())
	pk.p.Buf = g.AppendTo(pk.p.Buf)
	return pk.end(id)
}

// AddEncoded copies raw, one sample already in wire encoding, in as the
// run's next sample, refusing bytes whose header names another id.
func (pk *Packer) AddEncoded(raw []byte) error {
	id := pk.next()
	if len(raw) < headerSize || int64(binary.LittleEndian.Uint64(raw[4:])) != id {
		return fmt.Errorf("graph: encoded bytes for id %d do not hold that sample", id)
	}
	pk.reserve(len(raw))
	pk.p.Buf = append(pk.p.Buf, raw...)
	return pk.end(id)
}

// Finish returns the run, which must hold every sample of [lo, hi). Its
// buffer's capacity is within 1 % of its length.
func (pk *Packer) Finish() (*Packed, error) {
	p := pk.p
	if len(p.Ends) != pk.n {
		return nil, fmt.Errorf("graph: packed run from %d holds %d of %d samples", p.Lo, len(p.Ends), pk.n)
	}
	if pk.n > 0 {
		pk.mean = (len(p.Buf) + pk.n - 1) / pk.n
	}
	if cap(p.Buf)-len(p.Buf) > len(p.Buf)/100 {
		pk.spare = p.Buf
		p.Buf = append(make([]byte, 0, len(p.Buf)), p.Buf...)
	}
	pk.p = Packed{}
	return &p, nil
}

// Pack reads samples [lo, hi) through read and packs them, one sample in
// memory at a time.
func (pk *Packer) Pack(lo, hi int64, read func(id int64) (*Graph, error)) (*Packed, error) {
	pk.Start(lo, hi)
	for id := lo; id < hi; id++ {
		g, err := read(id)
		if err != nil {
			return nil, fmt.Errorf("graph: read sample %d: %w", id, err)
		}
		if err := pk.Add(g); err != nil {
			return nil, err
		}
	}
	return pk.Finish()
}
