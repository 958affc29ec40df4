package graph_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"ddstore/internal/datasets"
	"ddstore/internal/graph"
)

// TestPackMatchesEncode packs ranges of every dataset and checks the buffer
// is the concatenated Encode() of the range, each Sample is its id's
// Encode() with no room to append into its neighbour, and the buffer ends
// within 1 % of its bytes — through Pack and through AddEncoded alike.
func TestPackMatchesEncode(t *testing.T) {
	cfg := datasets.Config{NumGraphs: 600}
	for _, ds := range []*datasets.Dataset{
		datasets.Ising(cfg), datasets.HomoLumo(cfg), datasets.AISDExDiscrete(cfg), datasets.AISDExSmooth(cfg),
	} {
		// One Packer packs every range in turn, so later runs start in the
		// buffers earlier trims left behind; every run is checked again
		// once the last is done.
		var reused graph.Packer
		var recheck []func()
		for _, r := range [][2]int64{{3, 600}, {0, 1}, {7, 40}, {100, 500}} {
			lo, hi := r[0], r[1]
			var want []byte
			var encs [][]byte
			var pk graph.Packer
			pk.Start(lo, hi)
			for id := lo; id < hi; id++ {
				g, err := ds.Sample(id)
				if err != nil {
					t.Fatal(err)
				}
				enc := g.Encode()
				want, encs = append(want, enc...), append(encs, enc)
				if err := pk.AddEncoded(enc); err != nil {
					t.Fatal(err)
				}
			}
			copied, err := pk.Finish()
			if err != nil {
				t.Fatal(err)
			}
			packed, err := reused.Pack(lo, hi, ds.AppendSample)
			if err != nil {
				t.Fatal(err)
			}
			check := func() {
				for how, p := range map[string]*graph.Packed{"Pack": packed, "AddEncoded": copied} {
					name := fmt.Sprintf("%s [%d,%d) by %s", ds.Name(), lo, hi, how)
					if !bytes.Equal(p.Buf, want) {
						t.Fatalf("%s: buffer differs from the concatenated Encode()", name)
					}
					if slack := cap(p.Buf) - len(p.Buf); slack > len(p.Buf)/100 {
						t.Errorf("%s: %d bytes of capacity past %d", name, slack, len(p.Buf))
					}
					if p.Lo != lo || len(p.Ends) != int(hi-lo) {
						t.Fatalf("%s: run starts at %d with %d ends", name, p.Lo, len(p.Ends))
					}
					for id := lo; id < hi; id++ {
						if s := p.Sample(id); !bytes.Equal(s, encs[id-lo]) || cap(s) != len(s) {
							t.Fatalf("%s: sample %d is not its own encoded bytes, clipped", name, id)
						}
					}
				}
			}
			check()
			recheck = append(recheck, check)
		}
		for _, check := range recheck {
			check()
		}
	}
}

// TestPackRefusesWrongID: every sample that enters a run passes one check,
// whether a source appends it (Pack, AddFrom) or it arrives encoded
// (AddEncoded): exactly one encoded graph, by Decode's header parse and
// length, holding the id the run expects. Bytes that fail it are dropped,
// so the right sample can still follow, and a run missing one is refused.
func TestPackRefusesWrongID(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
	var pk graph.Packer
	_, err := pk.Pack(10, 20, func(buf []byte, id int64) ([]byte, error) {
		return ds.AppendSample(buf, id%15)
	})
	if err == nil || !strings.Contains(err.Error(), "for sample 15 hold sample 0") {
		t.Fatalf("Pack over a source off by 15 from id 15: %v", err)
	}

	good, _ := ds.AppendSample(nil, 3)
	other, _ := ds.AppendSample(nil, 4)
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for _, c := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"wrong id", other, "hold sample 4"},
		{"truncated header", good[:20], "truncated header"},
		{"truncated payload", good[:len(good)-4], "needs more than"},
		{"trailing bytes", append(bytes.Clone(good), 0, 0, 0, 0), "4 trailing bytes"},
		{"lying target count", edit(func(b []byte) []byte { b[32]--; return b }), "4 trailing bytes"},
		{"bad magic", edit(func(b []byte) []byte { b[0] ^= 0xff; return b }), "bad magic"},
		{"count overflow", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], math.MaxUint32)
			return b
		}), "needs more than"},
	} {
		bad := func(buf []byte, id int64) ([]byte, error) { return append(buf, c.raw...), nil }
		if _, err := pk.Pack(3, 4, bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Pack = %v, want an error saying %q", c.name, err, c.want)
		}
		for _, add := range []struct {
			how string
			add func(raw []byte) error
		}{
			{"AddFrom", func(raw []byte) error {
				return pk.AddFrom(func(buf []byte, id int64) ([]byte, error) { return append(buf, raw...), nil })
			}},
			{"AddEncoded", pk.AddEncoded},
		} {
			pk.Start(3, 4)
			if err := add.add(c.raw); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s = %v, want an error saying %q", c.name, add.how, err, c.want)
			}
			if _, err := pk.Finish(); err == nil {
				t.Errorf("%s: %s: Finish returned a run missing its sample", c.name, add.how)
			}
			pk.Start(3, 4)
			if err := add.add(c.raw); err == nil {
				t.Fatalf("%s: %s took the bytes", c.name, add.how)
			}
			if err := add.add(good); err != nil {
				t.Fatalf("%s: %s refused sample 3 after refusing the bad bytes: %v", c.name, add.how, err)
			}
			if p, err := pk.Finish(); err != nil || !bytes.Equal(p.Buf, good) {
				t.Fatalf("%s: %s: the refused bytes stayed in the run (%v)", c.name, add.how, err)
			}
		}
	}

	failing := func(buf []byte, id int64) ([]byte, error) { return buf, fmt.Errorf("disk gone") }
	if _, err := pk.Pack(3, 4, failing); err == nil || !strings.Contains(err.Error(), "read sample 3: disk gone") {
		t.Fatalf("Pack over a failing source: %v", err)
	}
}

// TestPackEmptyRange: an empty run reads nothing and serves nothing.
func TestPackEmptyRange(t *testing.T) {
	p, err := new(graph.Packer).Pack(9, 9, func(buf []byte, id int64) ([]byte, error) {
		t.Fatalf("read %d for an empty range", id)
		return buf, nil
	})
	if err != nil || p.Lo != 9 || len(p.Buf) != 0 || len(p.Ends) != 0 {
		t.Fatalf("Pack(9, 9) = %+v, %v", p, err)
	}
}

// BenchmarkPack packs 1,000 pre-encoded samples with a fresh Packer, as
// core.Open does from a source. Its allocations (the Packed, the end
// offsets, append's growth over the first samples, the reservation from
// their mean, a trim) do not grow with the run: `make bench-allocs` holds
// the count, and a per-sample allocation would pass it 1,000 times.
func BenchmarkPack(b *testing.B) {
	const n = 1000
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	encs := make([][]byte, n)
	var size int64
	for i := range encs {
		encs[i], _ = ds.AppendSample(nil, int64(i))
		size += int64(len(encs[i]))
	}
	read := func(buf []byte, id int64) ([]byte, error) { return append(buf, encs[id]...), nil }
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(graph.Packer).Pack(0, n, read); err != nil {
			b.Fatal(err)
		}
	}
}
