package mle

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
)

func randVec(rng *mrand.Rand, n int) []ff.Fr {
	v := make([]ff.Fr, n)
	for i := range v {
		v[i].SetPseudoRandom(rng)
	}
	return v
}

func boolPoint(idx, k int) []ff.Fr {
	pt := make([]ff.Fr, k)
	for i := 0; i < k; i++ {
		// variable 0 is the most significant bit
		bit := (idx >> (k - 1 - i)) & 1
		pt[i].SetUint64(uint64(bit))
	}
	return pt
}

func TestDenseEvalOnHypercube(t *testing.T) {
	rng := mrand.New(mrand.NewSource(300))
	m := NewDense(randVec(rng, 8))
	for idx := 0; idx < 8; idx++ {
		got := m.Eval(boolPoint(idx, 3))
		if !got.Equal(&m.Evals[idx]) {
			t.Fatalf("hypercube eval mismatch at %d", idx)
		}
	}
}

func TestDensePadding(t *testing.T) {
	rng := mrand.New(mrand.NewSource(301))
	m := NewDense(randVec(rng, 5)) // pads to 8
	if m.NumVars != 3 || len(m.Evals) != 8 {
		t.Fatalf("bad padding: %d vars, %d evals", m.NumVars, len(m.Evals))
	}
	for i := 5; i < 8; i++ {
		if !m.Evals[i].IsZero() {
			t.Fatal("padding not zero")
		}
	}
}

func TestFixMatchesEval(t *testing.T) {
	rng := mrand.New(mrand.NewSource(302))
	m := NewDense(randVec(rng, 16))
	pt := randVec(rng, 4)
	want := m.Eval(pt)
	c := m.Clone()
	for i := range pt {
		c.Fix(&pt[i])
	}
	if !c.Evals[0].Equal(&want) {
		t.Fatal("iterated Fix != Eval")
	}
}

func TestMLEIsMultilinear(t *testing.T) {
	// f(r) must be linear in each coordinate: f(..., r_i, ...) =
	// (1−r_i)·f(...,0,...) + r_i·f(...,1,...).
	rng := mrand.New(mrand.NewSource(303))
	m := NewDense(randVec(rng, 8))
	pt := randVec(rng, 3)
	for coord := 0; coord < 3; coord++ {
		p0 := append([]ff.Fr(nil), pt...)
		p1 := append([]ff.Fr(nil), pt...)
		p0[coord].SetZero()
		p1[coord].SetOne()
		f0 := m.Eval(p0)
		f1 := m.Eval(p1)
		var one, want, t1 ff.Fr
		one.SetOne()
		want.Sub(&one, &pt[coord])
		want.Mul(&want, &f0)
		t1.Mul(&pt[coord], &f1)
		want.Add(&want, &t1)
		got := m.Eval(pt)
		if !got.Equal(&want) {
			t.Fatalf("not multilinear in coordinate %d", coord)
		}
	}
}

func TestEqTable(t *testing.T) {
	rng := mrand.New(mrand.NewSource(304))
	r := randVec(rng, 4)
	table := EqTable(r)
	if len(table) != 16 {
		t.Fatalf("table size %d", len(table))
	}
	// Σ_x eq(r,x) = 1.
	var sum ff.Fr
	for i := range table {
		sum.Add(&sum, &table[i])
	}
	if !sum.IsOne() {
		t.Fatal("eq table does not sum to 1")
	}
	// table[i] == EqEval(r, bits(i)).
	for i := 0; i < 16; i++ {
		want := EqEval(r, boolPoint(i, 4))
		if !table[i].Equal(&want) {
			t.Fatalf("eq table mismatch at %d", i)
		}
	}
	// On Boolean points eq is the Kronecker delta.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			got := EqEval(boolPoint(i, 4), boolPoint(j, 4))
			if (i == j) != got.IsOne() || (i != j) != got.IsZero() {
				t.Fatalf("eq(%d,%d) wrong", i, j)
			}
		}
	}
}

// sparseEval is the oracle M̃(rx, ry) = Σ entries v·eq(rx,row)·eq(ry,col).
func sparseEval(s *Sparse, rx, ry []ff.Fr) ff.Fr {
	eqR, eqC := EqTable(rx), EqTable(ry)
	var acc, t ff.Fr
	for _, e := range s.Entries {
		t.Mul(&e.Val, &eqR[e.Row])
		t.Mul(&t, &eqC[e.Col])
		acc.Add(&acc, &t)
	}
	return acc
}

// sparseBindRows is the matrix MLE with the row block bound to rx, as a
// dense column vector built by BindRowsInto.
func sparseBindRows(s *Sparse, rx []ff.Fr) *Dense {
	evals := make([]ff.Fr, 1<<s.ColVars)
	s.BindRowsInto(rx, evals)
	return &Dense{NumVars: s.ColVars, Evals: evals}
}

func TestSparseEvalMatchesDense(t *testing.T) {
	rng := mrand.New(mrand.NewSource(305))
	// 4×8 matrix with a handful of nonzeros.
	rows, cols := 4, 8
	dense := make([]ff.Fr, rows*cols)
	var entries []SparseEntry
	for k := 0; k < 10; k++ {
		r := rng.Intn(rows)
		c := rng.Intn(cols)
		var v ff.Fr
		v.SetPseudoRandom(rng)
		dense[r*cols+c].Add(&dense[r*cols+c], &v)
		entries = append(entries, SparseEntry{Row: r, Col: c, Val: v})
	}
	sp := NewSparse(entries, rows, cols)
	full := NewDense(dense) // 5 vars: 2 row + 3 col (row block is high bits)
	rx := randVec(rng, 2)
	ry := randVec(rng, 3)
	got := sparseEval(sp, rx, ry)
	want := full.Eval(append(append([]ff.Fr(nil), rx...), ry...))
	if !got.Equal(&want) {
		t.Fatal("sparse eval != dense eval")
	}
}

func TestBindRows(t *testing.T) {
	rng := mrand.New(mrand.NewSource(306))
	entries := []SparseEntry{
		{Row: 0, Col: 1, Val: ff.NewFr(3)},
		{Row: 1, Col: 2, Val: ff.NewFr(5)},
		{Row: 2, Col: 1, Val: ff.NewFr(7)},
	}
	sp := NewSparse(entries, 4, 4)
	rx := randVec(rng, 2)
	bound := sparseBindRows(sp, rx)
	ry := randVec(rng, 2)
	got := bound.Eval(ry)
	want := sparseEval(sp, rx, ry)
	if !got.Equal(&want) {
		t.Fatal("BindRowsInto inconsistent with Eval")
	}
}

// SplitEq agrees with the full EqTableInto table at every split of
// |r| ∈ {0, 1, 2, 5, 8}: Hi·Lo at each entry, and Dot over runs at many
// offsets, of lengths that are mostly not a power of two.
func TestSplitEqMatchesEqTable(t *testing.T) {
	rng := mrand.New(mrand.NewSource(52))
	for _, k := range []int{0, 1, 2, 5, 8} {
		r := randVec(rng, k)
		full := make([]ff.Fr, 1<<k)
		EqTableInto(r, full)
		for hi := 0; hi <= k; hi++ {
			s := NewSplitEq(r, hi)
			if len(s.Hi) != 1<<hi || len(s.Lo) != 1<<(k-hi) {
				t.Fatalf("|r| = %d split at %d: tables of %d and %d", k, hi, len(s.Hi), len(s.Lo))
			}
			for v := range full {
				var got ff.Fr
				got.Mul(&s.Hi[v>>(k-hi)], &s.Lo[v&(len(s.Lo)-1)])
				if !got.Equal(&full[v]) {
					t.Fatalf("|r| = %d split at %d: eq entry %d differs", k, hi, v)
				}
			}
			for _, n := range []int{0, 1, 3, 5, 7, 13, 100, 255} {
				for off := 0; off+n <= len(full); off += 1 + n/2 {
					vals := randVec(rng, n)
					var want, term ff.Fr
					for i := range vals {
						term.Mul(&vals[i], &full[off+i])
						want.Add(&want, &term)
					}
					if got := s.Dot(off, vals); !got.Equal(&want) {
						t.Fatalf("|r| = %d split at %d: Dot of %d at %d differs", k, hi, n, off)
					}
				}
			}
			s.Release()
		}
	}
}
