// Package mle implements dense and sparse multilinear extensions over the
// Boolean hypercube, the polynomial substrate of the sumcheck-based
// backends (Spartan and the zkCNN-style interactive matmul protocol).
//
// A Dense MLE of k variables stores its 2^k hypercube evaluations indexed
// by integers whose MOST significant bit is variable 0; Fix binds variable
// 0 first, which matches the round order of the sumcheck prover.
package mle

import (
	"fmt"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// parGrain is the minimum number of field operations worth handing to a
// borrowed worker; below 2·parGrain the loops run inline.
const parGrain = 2048

// Dense is a multilinear polynomial given by its hypercube evaluations.
type Dense struct {
	NumVars int
	Evals   []ff.Fr // length 2^NumVars
}

// NewDense pads the given evaluations with zeros to the next power of two
// and wraps them as an MLE.
func NewDense(evals []ff.Fr) *Dense {
	k := 0
	for (1 << k) < len(evals) {
		k++
	}
	padded := make([]ff.Fr, 1<<k)
	copy(padded, evals)
	return &Dense{NumVars: k, Evals: padded}
}

// Clone deep-copies the MLE (Fix mutates in place).
func (m *Dense) Clone() *Dense {
	e := make([]ff.Fr, len(m.Evals))
	copy(e, m.Evals)
	return &Dense{NumVars: m.NumVars, Evals: e}
}

// Fix binds variable 0 to r, halving the table:
// f'(x₁..x_{k−1}) = (1−r)·f(0,x) + r·f(1,x).
func (m *Dense) Fix(r *ff.Fr) {
	if m.NumVars == 0 {
		panic("mle: Fix on 0-variable polynomial")
	}
	half := len(m.Evals) / 2
	parallel.For(half, parGrain, func(start, end int) {
		var diff ff.Fr
		for i := start; i < end; i++ {
			diff.Sub(&m.Evals[half+i], &m.Evals[i])
			diff.Mul(&diff, r)
			m.Evals[i].Add(&m.Evals[i], &diff)
		}
	})
	m.Evals = m.Evals[:half]
	m.NumVars--
}

// Eval evaluates the MLE at an arbitrary point (len(point) == NumVars)
// without mutating the receiver. The folding scratch is rented from the
// shared arena, so Eval is allocation-free in steady state.
func (m *Dense) Eval(point []ff.Fr) ff.Fr {
	if len(point) != m.NumVars {
		panic(fmt.Sprintf("mle: point has %d coords, want %d", len(point), m.NumVars))
	}
	scratch := arena.Frs(len(m.Evals))
	copy(scratch, m.Evals)
	c := &Dense{NumVars: m.NumVars, Evals: scratch}
	for i := range point {
		c.Fix(&point[i])
	}
	v := c.Evals[0]
	arena.PutFrs(scratch)
	return v
}

// Sum returns the sum of all hypercube evaluations.
func (m *Dense) Sum() ff.Fr {
	return parallel.MapReduce(parallel.Default(), len(m.Evals), parGrain,
		func(start, end int) ff.Fr {
			var acc ff.Fr
			for i := start; i < end; i++ {
				acc.Add(&acc, &m.Evals[i])
			}
			return acc
		},
		func(a, b ff.Fr) ff.Fr {
			a.Add(&a, &b)
			return a
		})
}

// EqTable returns the vector eq(r, x) for all x ∈ {0,1}^k, where
// eq(r,x) = Π_i (r_i·x_i + (1−r_i)(1−x_i)). Variable 0 is the most
// significant bit of the index, matching Dense. The table is built in
// place in its final buffer: one allocation total, not one per variable.
func EqTable(r []ff.Fr) []ff.Fr {
	out := make([]ff.Fr, 1<<len(r))
	EqTableInto(r, out)
	return out
}

// EqTableInto builds eq(r, ·) into out, which must have length 1<<len(r).
// Entries beyond index 0 may hold arbitrary garbage on entry; every slot
// is overwritten. Callers that rent out from the arena get a zero-alloc
// eq table.
func EqTableInto(r []ff.Fr, out []ff.Fr) {
	if len(out) != 1<<len(r) {
		panic(fmt.Sprintf("mle: eq table buffer has length %d, want %d", len(out), 1<<len(r)))
	}
	out[0].SetOne()
	var one ff.Fr
	one.SetOne()
	size := 1
	for i := range r {
		var om ff.Fr
		om.Sub(&one, &r[i])
		ri := r[i]
		eqDouble(out, size, &om, &ri)
		size *= 2
	}
}

// eqDouble expands the length-size prefix of out into its length-2·size
// doubling (out[2j] = out[j]·om, out[2j+1] = out[j]·ri) without auxiliary
// storage. Source slots are consumed in descending halves — first
// [size/2, size), whose writes land entirely in [size, 2·size) and so
// cannot clobber any unread source, then [size/4, size/2), and so on —
// which makes each half safe to process in parallel; the small remainder
// runs inline in strictly descending order (writes at 2j ≥ j never
// overtake the read cursor).
func eqDouble(out []ff.Fr, size int, om, ri *ff.Fr) {
	hi := size
	for hi > 0 {
		lo := hi / 2
		if hi-lo < parGrain {
			for j := hi - 1; j >= 0; j-- {
				v := out[j]
				out[2*j+1].Mul(&v, ri)
				out[2*j].Mul(&v, om)
			}
			return
		}
		parallel.For(hi-lo, parGrain, func(start, end int) {
			for j := lo + start; j < lo+end; j++ {
				v := out[j]
				out[2*j+1].Mul(&v, ri)
				out[2*j].Mul(&v, om)
			}
		})
		hi = lo
	}
}

// SplitEq holds eq(r, ·) as two tables of about 2^(|r|/2) entries: with r
// split into (r_hi, r_lo), eq(r, v) = Hi[v >> |r_lo|]·Lo[v mod 2^|r_lo|]
// (variable 0 is the most significant bit, as in EqTableInto). Both
// tables are rented from the arena; Release returns them.
type SplitEq struct {
	Hi, Lo []ff.Fr
	loVars int
}

// NewSplitEq splits r after its first hiVars variables.
func NewSplitEq(r []ff.Fr, hiVars int) *SplitEq {
	s := &SplitEq{Hi: arena.Frs(1 << hiVars), Lo: arena.Frs(1 << (len(r) - hiVars)), loVars: len(r) - hiVars}
	EqTableInto(r[:hiVars], s.Hi)
	EqTableInto(r[hiVars:], s.Lo)
	return s
}

// Dot returns Σ_t vals[t]·eq(r, off+t) over any off+len(vals) ≤ 2^|r|:
// one multiply per entry against Lo, and one against Hi per run of
// entries that shares it.
func (s *SplitEq) Dot(off int, vals []ff.Fr) ff.Fr {
	var acc, run, t ff.Fr
	for len(vals) > 0 {
		lo := s.Lo[off&(len(s.Lo)-1):]
		n := min(len(vals), len(lo))
		run.SetZero()
		for i := 0; i < n; i++ {
			t.Mul(&vals[i], &lo[i])
			run.Add(&run, &t)
		}
		t.Mul(&run, &s.Hi[off>>s.loVars])
		acc.Add(&acc, &t)
		vals, off = vals[n:], off+n
	}
	return acc
}

// Release returns both tables to the arena.
func (s *SplitEq) Release() {
	arena.PutFrs(s.Hi)
	arena.PutFrs(s.Lo)
}

// EqEval computes eq(a, b) for two points of equal length.
func EqEval(a, b []ff.Fr) ff.Fr {
	if len(a) != len(b) {
		panic("mle: eq points of different lengths")
	}
	var acc, one, t, u ff.Fr
	acc.SetOne()
	one.SetOne()
	for i := range a {
		// a_i·b_i + (1−a_i)(1−b_i)
		t.Mul(&a[i], &b[i])
		var na, nb ff.Fr
		na.Sub(&one, &a[i])
		nb.Sub(&one, &b[i])
		u.Mul(&na, &nb)
		t.Add(&t, &u)
		acc.Mul(&acc, &t)
	}
	return acc
}

// SparseEntry is one nonzero of a sparse two-index function (matrix).
type SparseEntry struct {
	Row, Col int
	Val      ff.Fr
}

// Sparse is a matrix viewed as an MLE over (row, col) variable blocks.
type Sparse struct {
	RowVars, ColVars int
	Entries          []SparseEntry
}

// NewSparse wraps entries for a numRows×numCols function.
func NewSparse(entries []SparseEntry, numRows, numCols int) *Sparse {
	rv, cv := 0, 0
	for (1 << rv) < numRows {
		rv++
	}
	for (1 << cv) < numCols {
		cv++
	}
	return &Sparse{RowVars: rv, ColVars: cv, Entries: entries}
}

// BindRowsInto accumulates the row-bound column vector into evals, which
// must be zeroed and of length 1<<ColVars (arena.Frs satisfies both). The
// eq(rx, ·) table is rented scratch, so a caller that also rents evals
// binds rows with zero allocations.
func (s *Sparse) BindRowsInto(rx, evals []ff.Fr) {
	if len(evals) != 1<<s.ColVars {
		panic(fmt.Sprintf("mle: BindRowsInto buffer has length %d, want %d", len(evals), 1<<s.ColVars))
	}
	eqR := arena.Frs(1 << len(rx))
	EqTableInto(rx, eqR)
	var t ff.Fr
	for _, e := range s.Entries {
		t.Mul(&e.Val, &eqR[e.Row])
		evals[e.Col].Add(&evals[e.Col], &t)
	}
	arena.PutFrs(eqR)
}
