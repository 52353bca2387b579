package crpc

import (
	mrand "math/rand"
	"strings"
	"testing"
	"testing/quick"

	"zkvc/internal/ff"
	"zkvc/internal/matrix"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
)

var allOptions = []Options{
	{},
	{PSQ: true},
	{CRPC: true},
	{CRPC: true, PSQ: true},
}

func randomStatement(rng *mrand.Rand, a, n, b int) *Statement {
	x := matrix.Random(rng, a, n, 100)
	w := matrix.Random(rng, n, b, 100)
	return NewStatement(x, w)
}

func TestSynthesizeAllOptionsSatisfied(t *testing.T) {
	rng := mrand.New(mrand.NewSource(600))
	stmt := randomStatement(rng, 3, 4, 5)
	for _, opts := range allOptions {
		syn, err := Synthesize(stmt, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
			t.Fatalf("%v: honest synthesis unsatisfied: %v", opts, err)
		}
	}
}

func TestConstraintCountsMatchPaper(t *testing.T) {
	// Paper §III-A: vanilla needs a·b·n multiplications (plus the wide
	// additions), CRPC needs n.
	rng := mrand.New(mrand.NewSource(601))
	a, n, b := 3, 4, 5
	stmt := randomStatement(rng, a, n, b)

	synVanilla, err := Synthesize(stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := synVanilla.Sys.NumConstraints(), a*b*n+a*b; got != want {
		t.Fatalf("vanilla constraints %d, want %d", got, want)
	}

	synPSQ, err := Synthesize(stmt, Options{PSQ: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := synPSQ.Sys.NumConstraints(), a*b*n; got != want {
		t.Fatalf("PSQ constraints %d, want %d", got, want)
	}

	synCRPC, err := Synthesize(stmt, Options{CRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := synCRPC.Sys.NumConstraints(), n+1; got != want {
		t.Fatalf("CRPC constraints %d, want %d", got, want)
	}

	synBoth, err := Synthesize(stmt, Options{CRPC: true, PSQ: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := synBoth.Sys.NumConstraints(), n; got != want {
		t.Fatalf("CRPC+PSQ constraints %d, want %d", got, want)
	}
}

func TestPSQReducesVariablesAndLeftWires(t *testing.T) {
	rng := mrand.New(mrand.NewSource(602))
	stmt := randomStatement(rng, 4, 6, 5)
	vanilla, _ := Synthesize(stmt, Options{})
	psq, _ := Synthesize(stmt, Options{PSQ: true})
	sv, sp := vanilla.Stats(), psq.Stats()
	if sp.Variables >= sv.Variables {
		t.Fatalf("PSQ variables %d not below vanilla %d", sp.Variables, sv.Variables)
	}
	if sp.ATerms >= sv.ATerms {
		t.Fatalf("PSQ left wires %d not below vanilla %d", sp.ATerms, sv.ATerms)
	}

	crpc, _ := Synthesize(stmt, Options{CRPC: true})
	both, _ := Synthesize(stmt, Options{CRPC: true, PSQ: true})
	sc, sb := crpc.Stats(), both.Stats()
	if sb.Variables >= sc.Variables {
		t.Fatal("PSQ on CRPC did not reduce variables")
	}
	if sb.Constraints >= sc.Constraints {
		t.Fatal("PSQ on CRPC did not reduce constraints")
	}
}

func TestWrongOutputUnsatisfiable(t *testing.T) {
	rng := mrand.New(mrand.NewSource(603))
	stmt := randomStatement(rng, 3, 3, 3)
	// Corrupt one output entry.
	bad := &Statement{X: stmt.X, W: stmt.W, Y: stmt.Y.Clone()}
	var one ff.Fr
	one.SetOne()
	bad.Y.At(1, 2).Add(bad.Y.At(1, 2), &one)
	for _, opts := range allOptions {
		syn, err := Synthesize(bad, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := syn.Sys.Satisfied(syn.Assignment); err == nil {
			t.Fatalf("%v: circuit satisfied with wrong Y", opts)
		}
	}
}

func TestDeriveZBindsStatement(t *testing.T) {
	rng := mrand.New(mrand.NewSource(604))
	stmt := randomStatement(rng, 2, 3, 2)
	z1 := DeriveZ(stmt)
	// Different Y → different challenge (an adversary cannot pick Y after Z).
	bad := &Statement{X: stmt.X, W: stmt.W, Y: stmt.Y.Clone()}
	var one ff.Fr
	one.SetOne()
	bad.Y.At(0, 0).Add(bad.Y.At(0, 0), &one)
	z2 := DeriveZ(bad)
	if z1.Equal(&z2) {
		t.Fatal("Z challenge does not bind Y")
	}
	// Different W commitment → different challenge.
	w2 := stmt.W.Clone()
	w2.At(0, 0).Add(w2.At(0, 0), &one)
	alt := &Statement{X: stmt.X, W: w2, Y: stmt.Y}
	z3 := DeriveZ(alt)
	if z1.Equal(&z3) {
		t.Fatal("Z challenge does not bind the W commitment")
	}
}

func TestCRPCSoundnessAgainstForgedAssignment(t *testing.T) {
	// A cheating prover keeps Y honest in DeriveZ but assigns a different
	// W in the circuit: the n aggregated constraints must break.
	rng := mrand.New(mrand.NewSource(605))
	stmt := randomStatement(rng, 3, 4, 3)
	syn, err := Synthesize(stmt, Options{CRPC: true, PSQ: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a W wire in the assignment.
	wStart := syn.Sys.NumPublic
	var one ff.Fr
	one.SetOne()
	syn.Assignment[wStart].Add(&syn.Assignment[wStart], &one)
	if err := syn.Sys.Satisfied(syn.Assignment); err == nil {
		t.Fatal("forged W assignment satisfied the CRPC circuit")
	}
}

func TestCRPCWithSpartanEndToEnd(t *testing.T) {
	rng := mrand.New(mrand.NewSource(606))
	stmt := randomStatement(rng, 4, 8, 4)
	syn, err := Synthesize(stmt, Options{CRPC: true, PSQ: true})
	if err != nil {
		t.Fatal(err)
	}
	params := pcs.DefaultParams()
	proof, err := spartan.Prove(syn.Sys, syn.Assignment, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := spartan.Verify(syn.Sys, proof, syn.Public, params); err != nil {
		t.Fatalf("CRPC+PSQ proof rejected: %v", err)
	}
}

// TestDimensionMismatch: every entry point rejects a statement whose
// dimensions disagree, under every circuit, and a batch names the
// element at fault.
func TestDimensionMismatch(t *testing.T) {
	rng := mrand.New(mrand.NewSource(607))
	x := matrix.Random(rng, 2, 3, 10)
	w := matrix.Random(rng, 3, 4, 10)
	good := NewStatement(x, w)
	for _, c := range []struct {
		name string
		bad  *Statement
	}{
		{"inner", &Statement{X: x, W: matrix.Random(rng, 4, 4, 10), Y: matrix.New(2, 4)}},
		{"Y rows", &Statement{X: x, W: w, Y: matrix.New(3, 4)}},
		{"Y cols", &Statement{X: x, W: w, Y: matrix.New(2, 3)}},
	} {
		for _, opts := range allOptions {
			if _, err := Synthesize(c.bad, opts); err == nil {
				t.Errorf("%s %v: Synthesize accepted the mismatch", c.name, opts)
			}
			if _, err := SynthesizeAt(c.bad, DeriveZ(good), opts); err == nil {
				t.Errorf("%s %v: SynthesizeAt accepted the mismatch", c.name, opts)
			}
		}
		for _, opts := range allOptions[2:] {
			_, err := SynthesizeBatch(&BatchStatement{Stmts: []*Statement{good, c.bad, good}}, opts)
			if err == nil || !strings.Contains(err.Error(), "batch element 1") {
				t.Errorf("%s %v: SynthesizeBatch error %v does not name element 1", c.name, opts, err)
			}
		}
	}
}

func TestRectangularShapes(t *testing.T) {
	rng := mrand.New(mrand.NewSource(608))
	for _, dims := range [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 2}, {2, 9, 1}} {
		stmt := randomStatement(rng, dims[0], dims[1], dims[2])
		for _, opts := range allOptions {
			syn, err := Synthesize(stmt, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", dims, opts, err)
			}
			if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
				t.Fatalf("%v %v: %v", dims, opts, err)
			}
		}
	}
}

func TestMatrixMulReference(t *testing.T) {
	x := matrix.FromInt64(2, 3, []int64{1, 2, 3, 4, 5, 6})
	w := matrix.FromInt64(3, 2, []int64{7, 8, 9, 10, 11, 12})
	y := matrix.Mul(x, w)
	want := matrix.FromInt64(2, 2, []int64{58, 64, 139, 154})
	if !y.Equal(want) {
		t.Fatal("reference matmul wrong")
	}
}

// TestQuickAllVariantsSatisfiable property: for random small shapes and
// all four circuit variants, honest synthesis satisfies the system and a
// corrupted output entry does not.
func TestQuickAllVariantsSatisfiable(t *testing.T) {
	variants := []Options{{}, {PSQ: true}, {CRPC: true}, {CRPC: true, PSQ: true}}
	f := func(seed int64, a8, n8, b8 uint8) bool {
		a := int(a8%5) + 1
		n := int(n8%5) + 1
		b := int(b8%5) + 1
		rng := mrand.New(mrand.NewSource(seed))
		x := matrix.Random(rng, a, n, 64)
		w := matrix.Random(rng, n, b, 64)
		stmt := NewStatement(x, w)
		for _, opts := range variants {
			syn, err := Synthesize(stmt, opts)
			if err != nil {
				t.Logf("%v %dx%dx%d: %v", opts, a, n, b, err)
				return false
			}
			if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
				t.Logf("%v %dx%dx%d unsatisfied: %v", opts, a, n, b, err)
				return false
			}
			// Corrupt Y and re-synthesize: the honest assignment path
			// computes a satisfying witness only for the true product,
			// so the claimed (wrong) public Y cannot be satisfied.
			bad := &Statement{X: stmt.X, W: stmt.W, Y: stmt.Y.Clone()}
			bad.Y.At(0, 0).SetInt64(1 << 30)
			if synBad, err := Synthesize(bad, opts); err == nil {
				if synBad.Sys.Satisfied(synBad.Assignment) == nil {
					t.Logf("%v %dx%dx%d: forged Y satisfied", opts, a, n, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
