package hydra

import (
	"bytes"
	"testing"

	"ddstore/internal/datasets"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig(3, 0, 2)
	m := New(cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A differently-seeded model has different weights; loading restores
	// exactly the saved ones.
	cfg2 := cfg
	cfg2.Seed = 99
	m2 := New(cfg2)
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatalf("weight %s[%d] differs after load", p1[i].Name, j)
			}
		}
	}
}

func TestCheckpointPredictionsIdentical(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 8})
	m := New(smallConfig(ds.NodeFeatDim(), 0, 1))
	b := batchFrom(t, ds, 0, 1, 2)
	want := m.EvalLoss(b)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig(ds.NodeFeatDim(), 0, 1)
	cfg2.Seed = 1234
	m2 := New(cfg2)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m2.EvalLoss(b); got != want {
		t.Fatalf("restored model loss %v, want %v", got, want)
	}
}

func TestCheckpointRejectsMismatchedArchitecture(t *testing.T) {
	m := New(smallConfig(3, 0, 2))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := New(smallConfig(3, 0, 5)) // different head width
	if err := other.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
	bigger := New(Config{NodeFeatDim: 3, HiddenDim: 16, ConvLayers: 3, FCLayers: 2, OutputDim: 2, Seed: 7})
	if err := bigger.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched layer count accepted")
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	m := New(smallConfig(3, 0, 2))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF
	if err := m.Load(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
	good := make([]byte, len(data))
	copy(good, data)
	good[0] ^= 0xFF // restore
	if err := m.Load(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
