package datasets

import (
	"hash/crc32"
	"testing"
)

// TestGeneratorsGolden pins the bytes every generator produces: a CRC-32
// (IEEE) of the concatenated Encode() of every id, per dataset, folded
// once over Sample's Graphs and once over AppendSample's bytes. Any change
// to a generator's RNG order, arithmetic or layout moves one of these, and
// with it every file, window and served sample built from the dataset.
func TestGeneratorsGolden(t *testing.T) {
	cases := []struct {
		d    *Dataset
		want uint32
	}{
		{Ising(Config{}), 0xa3dd6cdc},
		{HomoLumo(Config{}), 0x8b1f9ee7},
		{AISDExDiscrete(Config{NumGraphs: 20000}), 0x7b60cfa6},
		{AISDExSmooth(Config{NumGraphs: 5000}), 0xd0fab66d},
	}
	var buf []byte
	for _, c := range cases {
		var graphs, appended uint32
		for id := int64(0); id < int64(c.d.Len()); id++ {
			g, err := c.d.Sample(id)
			if err != nil {
				t.Fatal(err)
			}
			buf = g.AppendTo(buf[:0])
			graphs = crc32.Update(graphs, crc32.IEEETable, buf)
			if buf, err = c.d.AppendSample(buf[:0], id); err != nil {
				t.Fatal(err)
			}
			appended = crc32.Update(appended, crc32.IEEETable, buf)
		}
		if graphs != c.want || appended != c.want {
			t.Errorf("%s: CRC-32 over %d samples = %08x by Sample, %08x by AppendSample, want %08x",
				c.d.Name(), c.d.Len(), graphs, appended, c.want)
		}
	}
}
