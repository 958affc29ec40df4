package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"ddstore/internal/vtime"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("shape: %+v", m)
	}
	m.Data[1*3+2] = 5
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row = %v", row)
	}
}

func TestFromDataValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromData(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromData(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 9
	if m.Data[0] != 1 {
		t.Fatal("clone aliases")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTransposedVariantsAgree(t *testing.T) {
	rng := vtime.NewRNG(1)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		ri, k, c := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := New(ri, k)
		b := New(k, c)
		a.Randomize(r)
		b.Randomize(r)
		want := MatMul(a, b)

		// aT stored transposed: aT is k×ri with aT[k][i] = a[i][k].
		aT := New(k, ri)
		for i := 0; i < ri; i++ {
			for kk := 0; kk < k; kk++ {
				aT.Data[kk*ri+i] = a.Data[i*k+kk]
			}
		}
		gotAT := MatMulAT(aT, b)
		// bT stored transposed: c×k.
		bT := New(c, k)
		for kk := 0; kk < k; kk++ {
			for j := 0; j < c; j++ {
				bT.Data[j*k+kk] = b.Data[kk*c+j]
			}
		}
		gotBT := MatMulBT(a, bT)
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-gotAT.Data[i])) > 1e-4 {
				return false
			}
			if math.Abs(float64(want.Data[i]-gotBT.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBiasAndGrad(t *testing.T) {
	m := FromData(2, 2, []float32{1, 2, 3, 4})
	AddBiasRows(m, []float32{10, 20})
	if m.Data[0] != 11 || m.Data[3] != 24 {
		t.Fatalf("AddBias: %v", m.Data)
	}
	g := make([]float32, 2)
	BiasGrad(g, m)
	if g[0] != 11+13 || g[1] != 22+24 {
		t.Fatalf("BiasGrad = %v", g)
	}
}

func TestRelu(t *testing.T) {
	m := FromData(1, 4, []float32{-1, 0, 2, -3})
	ReluInPlace(m)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("Relu = %v", m.Data)
		}
	}
	d := FromData(1, 4, []float32{1, 1, 1, 1})
	ReluBackward(d, m)
	wantD := []float32{0, 0, 1, 0}
	for i := range wantD {
		if d.Data[i] != wantD[i] {
			t.Fatalf("ReluBackward = %v", d.Data)
		}
	}
}

func TestAddScale(t *testing.T) {
	a := FromData(1, 2, []float32{1, 2})
	b := FromData(1, 2, []float32{3, 4})
	AddInPlace(a, b)
	if a.Data[0] != 4 || a.Data[1] != 6 {
		t.Fatalf("Add = %v", a.Data)
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 3 {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	a := FromData(2, 1, []float32{1, 2})
	b := FromData(2, 2, []float32{3, 4, 5, 6})
	cat := ConcatCols(a, b)
	if cat.Rows != 2 || cat.Cols != 3 {
		t.Fatalf("Concat shape %dx%d", cat.Rows, cat.Cols)
	}
	if cat.Data[0] != 1 || cat.Data[1] != 3 || cat.Data[5] != 6 {
		t.Fatalf("Concat = %v", cat.Data)
	}
	parts := SplitCols(cat, 1, 2)
	for i := range a.Data {
		if parts[0].Data[i] != a.Data[i] {
			t.Fatal("split[0] mismatch")
		}
	}
	for i := range b.Data {
		if parts[1].Data[i] != b.Data[i] {
			t.Fatal("split[1] mismatch")
		}
	}
}

func TestConcatRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ConcatCols(New(2, 1), New(3, 1))
}

func TestRandomizeGlorotRange(t *testing.T) {
	m := New(50, 50)
	m.Randomize(vtime.NewRNG(3))
	limit := float32(math.Sqrt(6.0 / 100))
	var nonzero int
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 2400 {
		t.Fatalf("only %d nonzero entries", nonzero)
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	a := FromData(1, 2, []float32{1, 2})
	b := FromData(2, 1, []float32{3, 4})
	out := New(1, 1)
	MatMulInto(out, a, b)
	if out.Data[0] != 11 {
		t.Fatalf("MatMulInto = %v", out.Data[0])
	}
	MatMulInto(out, a, b) // must overwrite, not accumulate
	if out.Data[0] != 11 {
		t.Fatalf("MatMulInto accumulated: %v", out.Data[0])
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := vtime.NewRNG(1)
	x := New(128, 128)
	y := New(128, 128)
	x.Randomize(rng)
	y.Randomize(rng)
	out := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}
