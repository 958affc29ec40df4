package graph

import (
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
// read as 0. A DDStore rank's RMA window, a serving owner's resident shard
// and a cached dataset are each one, so a resident sample costs its bytes
// plus one 32-bit end offset, not a heap object of its own.
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
//
// A sample enters a run in one of two ways, AddFrom (a source appends it
// into the run's buffer) or AddEncoded (bytes already encoded, a
// migration's pull), and either way passes one check: CheckEncoded, the
// header parse and exact length Decode demands plus the id the run
// expects next. Bytes that fail it are dropped and the run is refused.
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
		p.Buf = slices.Grow(p.Buf, max(need, pk.runMean()*(pk.n-n)))
	}
}

// runMean is the mean encoded size of the run's samples so far, rounded
// up; 0 before the first.
func (pk *Packer) runMean() int {
	n := len(pk.p.Ends)
	if n == 0 {
		return 0
	}
	return (len(pk.p.Buf) + n - 1) / n
}

// admit takes the bytes past start in as the run's next sample, id, if
// CheckEncoded accepts them, and drops them otherwise. The run is refused
// once its bytes no longer fit the 32-bit end offsets.
func (pk *Packer) admit(start int, id int64) error {
	p := &pk.p
	if err := CheckEncoded(p.Buf[start:], id); err != nil {
		p.Buf = p.Buf[:start]
		return err
	}
	if uint64(len(p.Buf)) > math.MaxUint32 {
		return fmt.Errorf("graph: packed run from %d passes 4 GiB at sample %d", p.Lo, id)
	}
	p.Ends = append(p.Ends, uint32(len(p.Buf)))
	return nil
}

// AddFrom appends the run's next sample through read, which appends sample
// id in wire encoding to the buffer it is given and returns the extended
// buffer: a source writes straight into the run. The size of a sample is
// not known before read returns, so the run reserves for its remaining
// samples at their mean once that estimate is due and less than the mean
// is left; read grows the buffer itself only for a sample larger than
// what is left.
func (pk *Packer) AddFrom(read func(buf []byte, id int64) ([]byte, error)) error {
	id := pk.next()
	pk.reserve(pk.runMean())
	start := len(pk.p.Buf)
	buf, err := read(pk.p.Buf, id)
	if err != nil {
		return fmt.Errorf("graph: read sample %d: %w", id, err)
	}
	pk.p.Buf = buf
	return pk.admit(start, id)
}

// AddEncoded copies raw, one sample already in wire encoding, in as the
// run's next sample.
func (pk *Packer) AddEncoded(raw []byte) error {
	pk.reserve(len(raw))
	start := len(pk.p.Buf)
	pk.p.Buf = append(pk.p.Buf, raw...)
	return pk.admit(start, pk.next())
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

// Pack appends samples [lo, hi) through read (see AddFrom) and packs them.
func (pk *Packer) Pack(lo, hi int64, read func(buf []byte, id int64) ([]byte, error)) (*Packed, error) {
	pk.Start(lo, hi)
	for id := lo; id < hi; id++ {
		if err := pk.AddFrom(read); err != nil {
			return nil, err
		}
	}
	return pk.Finish()
}
