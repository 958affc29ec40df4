package graph_test

import (
	"bytes"
	"fmt"
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
				g, err := ds.ReadSample(id)
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
			packed, err := reused.Pack(lo, hi, ds.ReadSample)
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

// TestPackRefusesWrongID: a source that answers with another sample, or
// encoded bytes that name another id, fail the run.
func TestPackRefusesWrongID(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 50})
	var pk graph.Packer
	_, err := pk.Pack(10, 20, func(id int64) (*graph.Graph, error) {
		return ds.ReadSample(id % 15)
	})
	if err == nil || !strings.Contains(err.Error(), "returned sample 0 for id 15") {
		t.Fatalf("Pack over a source off by 15 from id 15: %v", err)
	}
	g, _ := ds.ReadSample(4)
	pk.Start(3, 5)
	for _, raw := range [][]byte{g.Encode(), g.Encode()[:20]} {
		if err := pk.AddEncoded(raw); err == nil {
			t.Fatalf("AddEncoded took %d bytes of sample 4 as sample 3", len(raw))
		}
	}
	if _, err := pk.Finish(); err == nil {
		t.Fatal("Finish returned a run missing both samples")
	}
}

// TestPackEmptyRange: an empty run reads nothing and serves nothing.
func TestPackEmptyRange(t *testing.T) {
	p, err := new(graph.Packer).Pack(9, 9, func(id int64) (*graph.Graph, error) {
		t.Fatalf("read %d for an empty range", id)
		return nil, nil
	})
	if err != nil || p.Lo != 9 || len(p.Buf) != 0 || len(p.Ends) != 0 {
		t.Fatalf("Pack(9, 9) = %+v, %v", p, err)
	}
}

// BenchmarkPack packs 1,000 pre-read graphs with a fresh Packer, as
// core.Open does. Its allocations (the Packed, the end offsets, append's
// growth over the first samples, the reservation from their mean, a trim)
// do not grow with the run: `make bench-allocs` holds the count, and a
// per-sample allocation would pass it 1,000 times.
func BenchmarkPack(b *testing.B) {
	const n = 1000
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: n})
	graphs := make([]*graph.Graph, n)
	var size int64
	for i := range graphs {
		graphs[i], _ = ds.ReadSample(int64(i))
		size += int64(graphs[i].EncodedSize())
	}
	read := func(id int64) (*graph.Graph, error) { return graphs[id], nil }
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(graph.Packer).Pack(0, n, read); err != nil {
			b.Fatal(err)
		}
	}
}
