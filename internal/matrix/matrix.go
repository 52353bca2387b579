// Package matrix provides small dense field-element matrices shared by the
// matmul circuit builders and the interactive baseline protocols.
package matrix

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	mrand "math/rand"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// Matrix is a row-major dense matrix over the scalar field.
type Matrix struct {
	Rows, Cols int
	Data       []ff.Fr
}

// New returns a zero matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]ff.Fr, rows*cols)}
}

// FromInt64 builds a matrix from row-major integers.
func FromInt64(rows, cols int, vals []int64) *Matrix {
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("matrix: %d values for %dx%d", len(vals), rows, cols))
	}
	m := New(rows, cols)
	for i, v := range vals {
		m.Data[i].SetInt64(v)
	}
	return m
}

// At returns a pointer to entry (i, j).
func (m *Matrix) At(i, j int) *ff.Fr { return &m.Data[i*m.Cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v ff.Fr) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether two matrices are identical.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if !m.Data[i].Equal(&o.Data[i]) {
			return false
		}
	}
	return true
}

// Mul returns m·o. Quantized tensors hold small signed integers; when
// both operands do and n·max|m|·max|o| < 2^63 for inner dimension n, no
// partial sum can leave int64, so the product is taken exactly in machine
// integers and each output entry is set once. Any other input takes the
// field i-k-j loop. Output rows are split into blocks
// across the shared worker budget (zkvc.SetParallelism); each block writes
// disjoint output rows, so the product is identical at every parallelism
// level.
func Mul(m, o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("matrix: %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Rows, o.Cols)
	// A row block should be worth a few thousand field mults before it
	// is worth a borrowed worker.
	rowWork := m.Cols * o.Cols
	grain := 1
	if rowWork > 0 && rowWork < 4096 {
		grain = (4096 + rowWork - 1) / rowWork
	}
	if xs, ws, ok := intOperands(m, o); ok {
		acc := make([]int64, len(out.Data))
		parallel.For(m.Rows, grain, func(rStart, rEnd int) {
			for i := rStart; i < rEnd; i++ {
				row := acc[i*o.Cols : (i+1)*o.Cols]
				for k, xik := range xs[i*m.Cols : (i+1)*m.Cols] {
					wRow := ws[k*o.Cols:][:len(row)]
					for j := range row {
						row[j] += xik * wRow[j]
					}
				}
				for j, v := range row {
					out.At(i, j).SetInt64(v)
				}
			}
		})
		return out
	}
	parallel.For(m.Rows, grain, func(rStart, rEnd int) {
		var t ff.Fr
		for i := rStart; i < rEnd; i++ {
			outRow := out.Data[i*o.Cols : (i+1)*o.Cols]
			for k := 0; k < m.Cols; k++ {
				xik := m.At(i, k)
				if xik.IsZero() {
					continue
				}
				oRow := o.Data[k*o.Cols : (k+1)*o.Cols]
				for j := range outRow {
					t.Mul(xik, &oRow[j])
					outRow[j].Add(&outRow[j], &t)
				}
			}
		}
	})
	return out
}

// intOperands returns the entries of m and o as int64, with ok set when
// Mul may take the integer path: every entry's balanced representative
// (Fr.CanonicalSigned) fits in 63 bits and n·max|m|·max|o| < 2^63, checked
// in 128-bit arithmetic.
func intOperands(m, o *Matrix) (xs, ws []int64, ok bool) {
	xs, xMax, ok := smallInts(m.Data)
	if !ok {
		return nil, nil, false
	}
	ws, wMax, ok := smallInts(o.Data)
	hi, p := bits.Mul64(xMax, wMax)
	hi2, p2 := bits.Mul64(p, uint64(m.Cols))
	return xs, ws, ok && hi == 0 && hi2 == 0 && p2 < 1<<63
}

// smallInts converts a to int64 and returns the largest magnitude, or
// ok = false at the first entry whose magnitude needs more than 63 bits.
func smallInts(a []ff.Fr) (vals []int64, maxMag uint64, ok bool) {
	vals = make([]int64, len(a))
	for i := range a {
		mag, neg := a[i].CanonicalSigned()
		if mag[1]|mag[2]|mag[3] != 0 || mag[0] >= 1<<63 {
			return nil, 0, false
		}
		vals[i] = int64(mag[0])
		if neg {
			vals[i] = -vals[i]
		}
		maxMag = max(maxMag, mag[0])
	}
	return vals, maxMag, true
}

// Random fills a matrix with small signed integers in [−bound, bound],
// mimicking quantized neural-network tensors.
func Random(rng *mrand.Rand, rows, cols int, bound int64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		v := rng.Int63n(2*bound+1) - bound
		m.Data[i].SetInt64(v)
	}
	return m
}

// EncodedLen is the length of the canonical encoding WriteCanonical
// writes.
func (m *Matrix) EncodedLen() int { return 16 + 32*len(m.Data) }

// WriteCanonical writes the matrix's canonical encoding, for Fiat–Shamir
// hashing: rows and cols as 8-byte little-endian words, then each entry's
// 32 canonical big-endian bytes, row-major. It streams through a small
// buffer, so hashing a matrix does not copy it.
func (m *Matrix) WriteCanonical(w io.Writer) {
	var buf [16 + 32*64]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Cols))
	n := 16
	for i := range m.Data {
		if n+32 > len(buf) {
			w.Write(buf[:n])
			n = 0
		}
		m.Data[i].PutBytes(buf[n:])
		n += 32
	}
	w.Write(buf[:n])
}
