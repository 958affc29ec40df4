// Package tensor provides the dense float32 matrix operations the GNN
// substrate is built on: matmul (plain and transposed variants), bias and
// activation kernels, and element-wise helpers. Everything is row-major and
// allocation-explicit; layers reuse buffers across steps where it matters.
package tensor

import (
	"fmt"
	"math"

	"ddstore/internal/vtime"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps data (not copied) as a Rows×Cols matrix.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills the matrix with Glorot-uniform values using rng: uniform
// in ±sqrt(6/(fanIn+fanOut)).
func (m *Matrix) Randomize(rng *vtime.RNG) {
	limit := float32(math.Sqrt(6 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (2*float32(rng.Float64()) - 1) * limit
	}
}

// MatMul computes out = a · b, allocating out. a is r×k, b is k×c.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a · b into a preallocated out (overwritten).
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul into %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// ikj order: stream through b rows for cache friendliness. Parallel
	// over output rows: each row is zeroed and accumulated by exactly one
	// worker in the serial k order, so results are bit-identical for any
	// worker count.
	ParallelFor(a.Rows, 2*a.Cols*b.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Cols; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j := range brow {
					orow[j] += aik * brow[j]
				}
			}
		}
	})
}

// MatMulAT computes out = aᵀ · b. a is k×r, b is k×c, out is r×c.
func MatMulAT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	// Parallel over output rows (a's columns): every worker streams the k
	// rows in order but only touches its own out-row range, preserving the
	// serial per-cell accumulation order exactly.
	ParallelFor(a.Cols, 2*a.Rows*b.Cols, func(lo, hi int) {
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i := lo; i < hi; i++ {
				aki := arow[i]
				if aki == 0 {
					continue
				}
				orow := out.Row(i)
				for j := range brow {
					orow[j] += aki * brow[j]
				}
			}
		}
	})
	return out
}

// MatMulBT computes out = a · bᵀ. a is r×k, b is c×k, out is r×c.
func MatMulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	// Parallel over rows of a; each out row is an independent set of dot
	// products, so partitioning cannot change any accumulation order.
	ParallelFor(a.Rows, 2*a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var sum float32
				for k := range arow {
					sum += arow[k] * brow[k]
				}
				orow[j] = sum
			}
		}
	})
	return out
}

// AddBiasRows adds bias (length Cols) to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: bias %d for %d cols", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// BiasGrad accumulates the column sums of dOut into gBias.
func BiasGrad(gBias []float32, dOut *Matrix) {
	if len(gBias) != dOut.Cols {
		panic(fmt.Sprintf("tensor: bias grad %d for %d cols", len(gBias), dOut.Cols))
	}
	for i := 0; i < dOut.Rows; i++ {
		row := dOut.Row(i)
		for j := range row {
			gBias[j] += row[j]
		}
	}
}

// ReluInPlace applies max(0, x) element-wise.
func ReluInPlace(m *Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// ReluBackward zeroes gradient entries where the forward activation was
// clipped: dIn = dOut ⊙ (activated > 0). activated is the post-ReLU output.
func ReluBackward(dOut, activated *Matrix) {
	if len(dOut.Data) != len(activated.Data) {
		panic("tensor: relu backward shape mismatch")
	}
	for i := range dOut.Data {
		if activated.Data[i] <= 0 {
			dOut.Data[i] = 0
		}
	}
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	if len(a.Data) != len(b.Data) {
		panic("tensor: add shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ConcatCols concatenates matrices with equal row counts side by side.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: concat rows %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SplitCols splits m into column blocks of the given widths (must sum to
// m.Cols), copying.
func SplitCols(m *Matrix, widths ...int) []*Matrix {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.Cols {
		panic(fmt.Sprintf("tensor: split widths sum %d != %d cols", total, m.Cols))
	}
	out := make([]*Matrix, len(widths))
	off := 0
	for bi, w := range widths {
		b := New(m.Rows, w)
		for i := 0; i < m.Rows; i++ {
			copy(b.Row(i), m.Row(i)[off:off+w])
		}
		out[bi] = b
		off += w
	}
	return out
}
