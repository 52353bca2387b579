// Package tensor provides the small integer (fixed-point) matrix library
// the quantized transformer inference runs on. Everything is int64 with an
// explicit fixed.Config carried by the caller; overflow safety comes from
// the narrow quantized ranges (see internal/fixed).
package tensor

import (
	"fmt"
	mrand "math/rand"

	"zkvc/internal/fixed"
)

// Mat is a row-major int64 matrix holding fixed-point values.
type Mat struct {
	Rows, Cols int
	Data       []int64
}

// New returns a zero matrix.
func New(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
}

// At returns entry (i, j).
func (m *Mat) At(i, j int) int64 { return m.Data[i*m.Cols+j] }

// Set assigns entry (i, j).
func (m *Mat) Set(i, j int, v int64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view of row i.
func (m *Mat) Row(i int) []int64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Random fills a matrix with quantized Gaussian-ish weights in
// [−bound, bound] (uniform; the distribution is irrelevant for timing).
func Random(rng *mrand.Rand, rows, cols int, bound int64) *Mat {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Int63n(2*bound+1) - bound
	}
	return m
}

// MatMul computes the fixed-point product a·b with rescale: every output
// is Σ_k a_ik·b_kj / scale.
func MatMul(a, b *Mat, c fixed.Config) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc int64
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, fixed.FloorDiv(acc, c.Scale()))
		}
	}
	return out
}

// MatMulRaw computes the exact integer product without rescaling (the
// shape that the ZKP matmul circuits verify).
func MatMulRaw(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc int64
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// Add returns a + b.
func Add(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Add shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddBias adds a 1×cols bias row to every row.
func AddBias(a *Mat, bias []int64) *Mat {
	if len(bias) != a.Cols {
		panic("tensor: bias length mismatch")
	}
	out := a.Clone()
	for i := 0; i < a.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Mat) *Mat {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// Scale multiplies every entry by num/den (integer, floor).
func Scale(a *Mat, num, den int64) *Mat {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = fixed.FloorDiv(a.Data[i]*num, den)
	}
	return out
}

// SoftmaxRows applies the §III-C fixed-point softmax to every row.
func SoftmaxRows(a *Mat, c fixed.Config, clipT int64, iters uint) *Mat {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), c.Softmax(a.Row(i), clipT, iters))
	}
	return out
}

// GELU applies the quadratic GELU elementwise.
func GELU(a *Mat, c fixed.Config) *Mat {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = c.GELUQuad(a.Data[i])
	}
	return out
}

// MeanPoolTokens average-pools each token's neighborhood of radius w along
// the token (row) axis — the PoolFormer token mixer.
func MeanPoolTokens(a *Mat, w int) *Mat {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		lo, hi := i-w, i+w
		if lo < 0 {
			lo = 0
		}
		if hi > a.Rows-1 {
			hi = a.Rows - 1
		}
		n := int64(hi - lo + 1)
		for j := 0; j < a.Cols; j++ {
			var acc int64
			for t := lo; t <= hi; t++ {
				acc += a.At(t, j)
			}
			out.Set(i, j, fixed.FloorDiv(acc, n))
		}
	}
	return out
}

// DownsampleTokens halves the token count by averaging adjacent pairs —
// the stage transitions of the hierarchical ImageNet architecture.
func DownsampleTokens(a *Mat) *Mat {
	rows := (a.Rows + 1) / 2
	out := New(rows, a.Cols)
	for i := 0; i < rows; i++ {
		hi := 2*i + 1
		if hi > a.Rows-1 {
			hi = a.Rows - 1
		}
		for j := 0; j < a.Cols; j++ {
			out.Set(i, j, fixed.FloorDiv(a.At(2*i, j)+a.At(hi, j), 2))
		}
	}
	return out
}

// ArgmaxRow returns the index of the largest entry in row i.
func (m *Mat) ArgmaxRow(i int) int {
	row := m.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// SliceCols returns the column block [lo, hi) as a new matrix (used to
// split attention heads).
func SliceCols(a *Mat, lo, hi int) *Mat {
	if lo < 0 || hi > a.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, a.Cols))
	}
	out := New(a.Rows, hi-lo)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i)[lo:hi])
	}
	return out
}

// ConcatCols joins matrices with equal row counts side by side (used to
// re-join attention heads).
func ConcatCols(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	cols := 0
	for _, m := range ms {
		if m.Rows != ms[0].Rows {
			panic("tensor: ConcatCols row mismatch")
		}
		cols += m.Cols
	}
	out := New(ms[0].Rows, cols)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(row[off:], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// MeanRows collapses the token axis to a single averaged row — the
// classifier pooling at the top of the transformer.
func MeanRows(a *Mat) *Mat {
	out := New(1, a.Cols)
	for j := 0; j < a.Cols; j++ {
		var acc int64
		for i := 0; i < a.Rows; i++ {
			acc += a.At(i, j)
		}
		out.Set(0, j, fixed.FloorDiv(acc, int64(a.Rows)))
	}
	return out
}

// NormRows rescales each row so its mean absolute value is the fixed-point
// unit — an integer stand-in for LayerNorm that keeps activations in a
// bounded range across residual blocks (the quantized-inference trick from
// NITI-style integer training).
func NormRows(a *Mat, c fixed.Config) *Mat {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var mav int64
		for _, v := range row {
			if v < 0 {
				mav -= v
			} else {
				mav += v
			}
		}
		mav = fixed.FloorDiv(mav, int64(len(row)))
		if mav < 1 {
			mav = 1
		}
		dst := out.Row(i)
		for j, v := range row {
			dst[j] = fixed.FloorDiv(v*c.Scale(), mav)
		}
	}
	return out
}
