package r1cs

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
)

func fr(v int64) ff.Fr {
	var x ff.Fr
	x.SetInt64(v)
	return x
}

// buildPaperCircuit builds y = (x1 + w)·(x2 + w) from the paper's Figure 2.
func buildPaperCircuit(x1, x2, w int64) (*Builder, Var) {
	b := NewBuilder()
	vx1 := b.PublicInput(fr(x1))
	vx2 := b.PublicInput(fr(x2))
	vw := b.Secret(fr(w))
	left := AddLC(VarLC(vx1), VarLC(vw))
	right := AddLC(VarLC(vx2), VarLC(vw))
	y := b.Mul(left, right)
	return b, y
}

func TestPaperExampleCircuit(t *testing.T) {
	b, y := buildPaperCircuit(3, 4, 5)
	if got := b.Value(y); got.Big().Int64() != (3+5)*(4+5) {
		t.Fatalf("y = %v, want 72", &got)
	}
	sys, z := b.Finish()
	if err := sys.Satisfied(z); err != nil {
		t.Fatal(err)
	}
	// Tamper with the output wire: must be detected.
	z[int(y)] = fr(73)
	if err := sys.Satisfied(z); err == nil {
		t.Fatal("tampered assignment accepted")
	}
}

func TestPublicBeforeSecretOrdering(t *testing.T) {
	b := NewBuilder()
	b.Secret(fr(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for public-after-secret allocation")
		}
	}()
	b.PublicInput(fr(2))
}

func TestDiv(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr(84))
	y := b.Secret(fr(12))
	q := b.Div(VarLC(x), VarLC(y))
	if got := b.Value(q); got.Big().Int64() != 7 {
		t.Fatalf("84/12 = %v, want 7", &got)
	}
	sys, z := b.Finish()
	if err := sys.Satisfied(z); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr(1))
	y := b.Secret(fr(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on division by zero")
		}
	}()
	b.Div(VarLC(x), VarLC(y))
}

func TestAssertBool(t *testing.T) {
	b := NewBuilder()
	good := b.Secret(fr(1))
	b.AssertBool(VarLC(good))
	sys, z := b.Finish()
	if err := sys.Satisfied(z); err != nil {
		t.Fatal(err)
	}

	b2 := NewBuilder()
	bad := b2.Secret(fr(2))
	b2.AssertBool(VarLC(bad))
	sys2, z2 := b2.Finish()
	if err := sys2.Satisfied(z2); err == nil {
		t.Fatal("non-boolean accepted by AssertBool")
	}
}

func TestLCAlgebra(t *testing.T) {
	rng := mrand.New(mrand.NewSource(70))
	b := NewBuilder()
	vals := make([]ff.Fr, 5)
	vars := make([]Var, 5)
	for i := range vals {
		vals[i].SetPseudoRandom(rng)
		vars[i] = b.Secret(vals[i])
	}
	lc1 := AddLC(VarLC(vars[0]), VarLC(vars[1]))
	lc2 := AddLC(VarLC(vars[1]), VarLC(vars[2]))
	sum := AddLC(lc1, lc2)
	// duplicate var 1 must merge into one term
	if len(sum) != 3 {
		t.Fatalf("expected 3 merged terms, got %d", len(sum))
	}
	var want, two ff.Fr
	two.SetUint64(2)
	want.Add(&vals[0], &vals[2])
	var t1 ff.Fr
	t1.Mul(&two, &vals[1])
	want.Add(&want, &t1)
	got := b.Eval(sum)
	if !got.Equal(&want) {
		t.Fatal("AddLC evaluation mismatch")
	}
	// a − a = empty
	diff := SubLC(lc1, lc1)
	if len(diff) != 0 {
		t.Fatal("SubLC(a,a) not empty")
	}
}

func TestAssertEqualAndZero(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr(9))
	y := b.Secret(fr(9))
	b.AssertEqual(VarLC(x), VarLC(y))
	b.AssertZero(SubLC(VarLC(x), VarLC(y)))
	sys, z := b.Finish()
	if err := sys.Satisfied(z); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	b, _ := buildPaperCircuit(1, 2, 3)
	sys, _ := b.Finish()
	st := sys.Stats()
	if st.Constraints != 1 || st.Public != 3 || st.Variables != 5 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.ATerms != 2 || st.BTerms != 2 || st.CTerms != 1 {
		t.Fatalf("unexpected term counts %+v", st)
	}
}

func TestSatisfiedLengthMismatch(t *testing.T) {
	b, _ := buildPaperCircuit(1, 2, 3)
	sys, z := b.Finish()
	if err := sys.Satisfied(z[:len(z)-1]); err == nil {
		t.Fatal("short assignment accepted")
	}
}

// The map-based linear combination algebra the package shipped before
// AddLC, SubLC and ScaleLC became map-free: FuzzLCAlgebra holds the
// shipped functions to its output term for term, order included.

// oracleScaleLC returns c·lc as a fresh linear combination.
func oracleScaleLC(lc LC, c *ff.Fr) LC {
	out := make(LC, 0, len(lc))
	for _, t := range lc {
		var nc ff.Fr
		nc.Mul(&t.Coeff, c)
		if nc.IsZero() {
			continue
		}
		out = append(out, Term{Coeff: nc, V: t.V})
	}
	return out
}

// oracleAddLC returns a + b, merging duplicate variables.
func oracleAddLC(a, b LC) LC {
	merged := make(map[Var]ff.Fr, len(a)+len(b))
	order := make([]Var, 0, len(a)+len(b))
	accum := func(lc LC) {
		for _, t := range lc {
			cur, ok := merged[t.V]
			if !ok {
				order = append(order, t.V)
			}
			cur.Add(&cur, &t.Coeff)
			merged[t.V] = cur
		}
	}
	accum(a)
	accum(b)
	out := make(LC, 0, len(order))
	for _, v := range order {
		c := merged[v]
		if c.IsZero() {
			continue
		}
		out = append(out, Term{Coeff: c, V: v})
	}
	return out
}

// oracleSubLC returns a − b.
func oracleSubLC(a, b LC) LC {
	var minusOne ff.Fr
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	return oracleAddLC(a, oracleScaleLC(b, &minusOne))
}

// FuzzLCAlgebra generates linear combinations with variables repeated
// within and across operands, the constant wire, and zero, ±1, small and
// random coefficients, and asserts that AddLC, SubLC and ScaleLC return
// the oracle's terms in the oracle's order. Long operands outgrow the
// merge's stack slot table.
func FuzzLCAlgebra(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 2, 2, 0, 0, 1, 1, 0, 1, 2, 1, 1, 3})
	f.Add([]byte{4, 3, 5, 0, 2, 1, 2, 2, 3, 3, 2, 0, 2, 1, 4, 3, 7})
	// b = 0·z₁ + z₂ + z₁: in a − b, z₁ follows z₂ because ScaleLC drops
	// the zero term before the merge.
	f.Add([]byte{9, 0, 0, 3, 0, 1, 1, 2, 1, 1, 1})
	f.Add(append([]byte{200, 90, 40, 6}, make([]byte, 400)...))
	// Long operands over 10, 60 and 256 variables: repeats, and more
	// distinct ones than the stack slot table holds.
	for _, vars := range []byte{9, 59, 255} {
		long := []byte{vars, 70, 75}
		for i := 0; i < 400; i++ {
			long = append(long, byte(i*37+i/7))
		}
		f.Add(long)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		vars := 1 + next()
		rng := mrand.New(mrand.NewSource(int64(next())))
		coeff := func() ff.Fr {
			var c ff.Fr
			switch k := next(); k % 5 {
			case 0: // zero
			case 1:
				c.SetOne()
			case 2:
				c.SetOne()
				c.Neg(&c)
			case 3:
				c.SetInt64(int64(k) - 128)
			default:
				c.SetPseudoRandom(rng)
			}
			return c
		}
		lc := func() LC {
			n := next() % 80
			out := make(LC, n)
			for i := range out {
				out[i] = Term{Coeff: coeff(), V: Var(next() % vars)}
			}
			return out
		}
		a, b := lc(), lc()
		c := coeff()
		same := func(op string, got, want LC) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d terms, oracle %d", op, len(got), len(want))
			}
			for i := range got {
				if got[i].V != want[i].V || !got[i].Coeff.Equal(&want[i].Coeff) {
					t.Fatalf("%s: term %d is %v·z[%d], oracle %v·z[%d]",
						op, i, &got[i].Coeff, got[i].V, &want[i].Coeff, want[i].V)
				}
			}
		}
		same("AddLC(a, b)", AddLC(a, b), oracleAddLC(a, b))
		same("AddLC(b, a)", AddLC(b, a), oracleAddLC(b, a))
		same("SubLC(a, b)", SubLC(a, b), oracleSubLC(a, b))
		same("SubLC(b, a)", SubLC(b, a), oracleSubLC(b, a))
		same("ScaleLC(a, c)", ScaleLC(a, &c), oracleScaleLC(a, &c))
	})
}
