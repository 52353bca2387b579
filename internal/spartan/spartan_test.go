package spartan

import (
	"errors"
	mrand "math/rand"
	"strings"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/sumcheck"
	"zkvc/internal/transcript"
)

func fr(v int64) ff.Fr {
	var x ff.Fr
	x.SetInt64(v)
	return x
}

// paperCircuit: y = (x1 + w)(x2 + w), publics x1, x2, y.
func paperCircuit(x1, x2, w int64) (*r1cs.System, []ff.Fr, []ff.Fr) {
	b := r1cs.NewBuilder()
	vx1 := b.PublicInput(fr(x1))
	vx2 := b.PublicInput(fr(x2))
	vy := b.PublicInput(fr((x1 + w) * (x2 + w)))
	vw := b.Secret(fr(w))
	b.AssertMul(
		r1cs.AddLC(r1cs.VarLC(vx1), r1cs.VarLC(vw)),
		r1cs.AddLC(r1cs.VarLC(vx2), r1cs.VarLC(vw)),
		r1cs.VarLC(vy),
	)
	sys, z := b.Finish()
	return sys, z, b.PublicWitness()
}

func chainCircuit(n int) (*r1cs.System, []ff.Fr, []ff.Fr) {
	b := r1cs.NewBuilder()
	prod := int64(1)
	for i := int64(1); i <= int64(n); i++ {
		prod *= i
	}
	out := b.PublicInput(fr(prod))
	cur := r1cs.OneLC()
	for i := 1; i <= n; i++ {
		v := b.Secret(fr(int64(i)))
		p := b.Mul(cur, r1cs.VarLC(v))
		cur = r1cs.VarLC(p)
	}
	b.AssertEqual(cur, r1cs.VarLC(out))
	sys, z := b.Finish()
	return sys, z, b.PublicWitness()
}

func TestSpartanPaperCircuit(t *testing.T) {
	sys, z, pub := paperCircuit(3, 4, 5)
	params := pcs.DefaultParams()
	proof, err := Prove(sys, z, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, proof, pub, params); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestSpartanChainCircuit(t *testing.T) {
	sys, z, pub := chainCircuit(12)
	params := pcs.DefaultParams()
	proof, err := Prove(sys, z, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, proof, pub, params); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if proof.SizeBytes() <= 0 {
		t.Fatal("bad proof size")
	}
}

func TestSpartanRejectsWrongPublic(t *testing.T) {
	sys, z, pub := chainCircuit(8)
	params := pcs.DefaultParams()
	proof, err := Prove(sys, z, params)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]ff.Fr, len(pub))
	copy(bad, pub)
	bad[1] = fr(999)
	if err := Verify(sys, proof, bad, params); err == nil {
		t.Fatal("wrong public input accepted")
	}
}

func TestSpartanRejectsBadWitness(t *testing.T) {
	sys, z, _ := paperCircuit(3, 4, 5)
	z[len(z)-1] = fr(6)
	if _, err := Prove(sys, z, pcs.DefaultParams()); err == nil {
		t.Fatal("Prove accepted unsatisfying witness")
	}
}

// TestSpartanNamesLowestViolatedConstraint breaks two of 2000 copy
// constraints, in different chunks of the prover's constraint pass, and
// expects Prove to fail before committing with the error Satisfied gives:
// the lower of the two, at any worker count.
func TestSpartanNamesLowestViolatedConstraint(t *testing.T) {
	b := r1cs.NewBuilder()
	outs := make([]r1cs.Var, 2000)
	for q := range outs {
		outs[q] = b.Mul(r1cs.VarLC(b.Secret(fr(int64(q)))), r1cs.OneLC())
	}
	sys, z := b.Finish()
	z[outs[1500]] = fr(1)
	z[outs[700]] = fr(2)
	want := "spartan: " + sys.Satisfied(z).Error()
	if !strings.Contains(want, "constraint 700 violated") {
		t.Fatalf("Satisfied names another constraint: %s", want)
	}
	defer parallel.SetDefaultSize(0)
	for _, workers := range []int{1, 4} {
		parallel.SetDefaultSize(workers)
		_, err := Prove(sys, z, pcs.DefaultParams())
		if err == nil || err.Error() != want {
			t.Fatalf("%d workers: Prove error %v, want %s", workers, err, want)
		}
	}
}

func TestSpartanRejectsTamperedProof(t *testing.T) {
	sys, z, pub := chainCircuit(8)
	params := pcs.DefaultParams()
	bump := func(x *ff.Fr) { one := ff.NewFr(1); x.Add(x, &one) }
	last := func(s *sumcheck.Proof) []ff.Fr { return s.RoundPolys[len(s.RoundPolys)-1] }
	// Tamper with each component in turn; every mutation must be caught.
	mutations := []func(p *Proof){
		func(p *Proof) { bump(&p.VA) },
		func(p *Proof) { bump(&p.PrivEval) },
		func(p *Proof) { bump(&p.Sum1.RoundPolys[0][0]) },
		func(p *Proof) { bump(&p.Sum2.RoundPolys[0][1]) },
		func(p *Proof) { p.Comm.Root[0] ^= 1 },
		// Round polynomials travel as evaluations at 0..deg and each round
		// check constrains only p(0)+p(1): bending the last round's
		// evaluation at 2 passes every round check and moves the final
		// evaluation. The closing identity rejects it first; the bent
		// bytes also move every later challenge, so the identities alone
		// are pinned by TestSpartanRejectsForgedFinalEvaluation.
		func(p *Proof) { bump(&last(p.Sum1)[2]) },
		func(p *Proof) { bump(&last(p.Sum2)[2]) },
	}
	for i, mutate := range mutations {
		fresh, err := Prove(sys, z, params)
		if err != nil {
			t.Fatal(err)
		}
		mutate(fresh)
		if err := Verify(sys, fresh, pub, params); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

// A nil proof or a nil part of one is ErrInvalidProof, not a nil
// dereference in the sumcheck or PCS verifiers.
func TestSpartanRejectsNilProofParts(t *testing.T) {
	sys, z, pub := chainCircuit(8)
	params := pcs.DefaultParams()
	for _, part := range []struct {
		name  string
		strip func(p *Proof) *Proof
	}{
		{"proof", func(*Proof) *Proof { return nil }},
		{"Sum1", func(p *Proof) *Proof { p.Sum1 = nil; return p }},
		{"Sum2", func(p *Proof) *Proof { p.Sum2 = nil; return p }},
		{"Opening", func(p *Proof) *Proof { p.Opening = nil; return p }},
	} {
		proof, err := Prove(sys, z, params)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(sys, part.strip(proof), pub, params); !errors.Is(err, ErrInvalidProof) {
			t.Fatalf("nil %s: got %v, want ErrInvalidProof", part.name, err)
		}
	}
}

// forgeProof runs Prove's protocol on a satisfying z, but hands one
// sumcheck a vector shifted along a direction its claimed sum cannot
// see: Cz in the outer sumcheck (which = 1), the padded witness in the
// inner one (which = 2). Every round check passes and every later
// challenge is drawn from the forged transcript, so the proof is
// consistent everywhere except that sumcheck's closing identity — the
// final1 or final2 comparison in Verify is all that can reject it.
func forgeProof(t *testing.T, sys *r1cs.System, z []ff.Fr, params pcs.Params, which int) *Proof {
	t.Helper()
	sx, sy := logDim(sys.NumConstraints()), logDim(sys.NumVars)
	dense := func(v []ff.Fr) *mle.Dense {
		return &mle.Dense{NumVars: logDim(len(v)), Evals: append([]ff.Fr(nil), v...)}
	}
	// shift adds d to v with Σ w·d = 0: d[i] = w[j], d[j] = −w[i] for the
	// first two nonzero weights.
	shift := func(v, w []ff.Fr) []ff.Fr {
		v = append([]ff.Fr(nil), v...)
		var nz []int
		for k := 0; k < len(w) && len(nz) < 2; k++ {
			if !w[k].IsZero() {
				nz = append(nz, k)
			}
		}
		i, j := nz[0], nz[1]
		v[i].Add(&v[i], &w[j])
		v[j].Sub(&v[j], &w[i])
		return v
	}

	priv := make([]ff.Fr, 1<<sy)
	copy(priv[sys.NumPublic:], z[sys.NumPublic:])
	comm, st, err := pcs.Commit(priv, params)
	if err != nil {
		t.Fatal(err)
	}
	tr := transcript.New(protocolLabel)
	tr.Append("comm", comm.Root[:])
	tr.AppendFrs("public", z[:sys.NumPublic])

	tau := tr.ChallengeFrs("tau", sx)
	az, bz, cz := make([]ff.Fr, 1<<sx), make([]ff.Fr, 1<<sx), make([]ff.Fr, 1<<sx)
	for q, c := range sys.Constraints {
		az[q], bz[q], cz[q] = r1cs.EvalLC(c.A, z), r1cs.EvalLC(c.B, z), r1cs.EvalLC(c.C, z)
	}
	eq := make([]ff.Fr, 1<<sx)
	mle.EqTableInto(tau, eq)
	czSum := cz
	if which == 1 {
		czSum = shift(cz, eq)
	}
	one := ff.NewFr(1)
	var minusOne ff.Fr
	minusOne.Neg(&one)
	ins1, err := sumcheck.NewInstance(sx, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{dense(eq), dense(az), dense(bz)}},
		{Coeff: minusOne, Factors: []*mle.Dense{dense(eq), dense(czSum)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum1, rx, _ := sumcheck.Prove(ins1, tr)
	va, vb, vc := dense(az).Eval(rx), dense(bz).Eval(rx), dense(cz).Eval(rx)
	tr.AppendFr("va", &va)
	tr.AppendFr("vb", &vb)
	tr.AppendFr("vc", &vc)

	r := [3]ff.Fr{tr.ChallengeFr("rA"), tr.ChallengeFr("rB"), tr.ChallengeFr("rC")}
	mz := make([]ff.Fr, 1<<sy)
	bindRows(sys, rx, &r, mz)
	zSum := make([]ff.Fr, 1<<sy)
	copy(zSum, z)
	if which == 2 {
		zSum = shift(zSum, mz)
	}
	ins2, err := sumcheck.NewInstance(sy, []sumcheck.Term{{Coeff: one, Factors: []*mle.Dense{dense(mz), dense(zSum)}}})
	if err != nil {
		t.Fatal(err)
	}
	sum2, ry, _ := sumcheck.Prove(ins2, tr)

	privEval := dense(priv).Eval(ry)
	tr.AppendFr("priv.eval", &privEval)
	opening := st.Open(ry, tr)
	st.Release()
	return &Proof{
		Comm: *comm, Sum1: sum1, VA: va, VB: vb, VC: vc,
		Sum2: sum2, PrivEval: privEval, Opening: opening,
	}
}

// A proof that is consistent except for one closing identity: only the
// final1 (outer) or final2 (inner) comparison stands between it and an
// accept. The unshifted forge is the control that the forger itself is
// honest.
func TestSpartanRejectsForgedFinalEvaluation(t *testing.T) {
	sys, z, pub := chainCircuit(8)
	params := pcs.DefaultParams()
	if err := Verify(sys, forgeProof(t, sys, z, params, 0), pub, params); err != nil {
		t.Fatalf("unshifted forge rejected: %v", err)
	}
	for _, which := range []int{1, 2} {
		err := Verify(sys, forgeProof(t, sys, z, params, which), pub, params)
		if !errors.Is(err, ErrInvalidProof) {
			t.Fatalf("sumcheck %d with a forged final evaluation: got %v, want ErrInvalidProof", which, err)
		}
	}
}

func TestSpartanPublicMustStartWithOne(t *testing.T) {
	sys, z, pub := paperCircuit(3, 4, 5)
	params := pcs.DefaultParams()
	proof, err := Prove(sys, z, params)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]ff.Fr, len(pub))
	copy(bad, pub)
	bad[0] = fr(2)
	if err := Verify(sys, proof, bad, params); err == nil {
		t.Fatal("public witness without leading 1 accepted")
	}
}

// randomSystem draws an R1CS structure (no assignment) with numCons
// constraints over numVars wires: LCs of 0..4 terms, repeated wires
// within an LC, and coefficients that are often 1.
func randomSystem(rng *mrand.Rand, numCons, numVars int) *r1cs.System {
	lc := func() r1cs.LC {
		out := make(r1cs.LC, rng.Intn(5))
		for i := range out {
			out[i].V = r1cs.Var(rng.Intn(numVars))
			if i > 0 && rng.Intn(3) == 0 {
				out[i].V = out[i-1].V
			}
			out[i].Coeff = ff.NewFr(1)
			if rng.Intn(2) == 0 {
				out[i].Coeff.SetPseudoRandom(rng)
			}
		}
		return out
	}
	sys := &r1cs.System{NumPublic: 1, NumVars: numVars, Constraints: make([]r1cs.Constraint, numCons)}
	for q := range sys.Constraints {
		sys.Constraints[q] = r1cs.Constraint{A: lc(), B: lc(), C: lc()}
	}
	return sys
}

// bindRows and evalAt agree with the three matrices taken apart as
// sparse MLEs: rows bound by mle.BindRowsInto and combined, and the
// evaluation summed entry by entry over eq(rx,row)·eq(ry,col). evalAt's
// public evaluation agrees with publicEvalOracle at public lengths 1, 2,
// 3, 5 and 129 and at every wire, whether or not that fills 2^sy.
func TestMatrixBindingMatchesSparseOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(77))
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {3, 2}, {5, 9}, {8, 8}, {13, 30}, {37, 17}, {3, 129}, {4, 256}} {
		numCons, numVars := shape[0], shape[1]
		sys := randomSystem(rng, numCons, numVars)
		sx, sy := logDim(numCons), logDim(numVars)
		rx, ry := randomFrs(rng, sx), randomFrs(rng, sy)
		r := [3]ff.Fr(randomFrs(rng, 3))

		wantBound := make([]ff.Fr, 1<<sy)
		var wantEval, term ff.Fr
		eqX, eqY := mle.EqTable(rx), mle.EqTable(ry)
		for m := range r {
			var entries []mle.SparseEntry
			for q, c := range sys.Constraints {
				for _, lt := range [3]r1cs.LC{c.A, c.B, c.C}[m] {
					entries = append(entries, mle.SparseEntry{Row: q, Col: int(lt.V), Val: lt.Coeff})
					term.Mul(&lt.Coeff, &eqX[q])
					term.Mul(&term, &eqY[lt.V])
					term.Mul(&term, &r[m])
					wantEval.Add(&wantEval, &term)
				}
			}
			bound := make([]ff.Fr, 1<<sy)
			mle.NewSparse(entries, numCons, numVars).BindRowsInto(rx, bound)
			for y := range bound {
				term.Mul(&r[m], &bound[y])
				wantBound[y].Add(&wantBound[y], &term)
			}
		}

		got := make([]ff.Fr, 1<<sy)
		bindRows(sys, rx, &r, got)
		for y := range got {
			if !got[y].Equal(&wantBound[y]) {
				t.Fatalf("%dx%d: bound column %d differs from the sparse oracle", numCons, numVars, y)
			}
		}
		for _, n := range []int{1, 2, 3, 5, 129, numVars} {
			if n > numVars {
				continue
			}
			public := randomFrs(rng, n)
			vm, pub := evalAt(sys, public, rx, ry, &r)
			if !vm.Equal(&wantEval) {
				t.Fatalf("%dx%d: matrix evaluation differs from the sparse oracle", numCons, numVars)
			}
			if want := publicEvalOracle(public, ry); !pub.Equal(&want) {
				t.Fatalf("%dx%d: evaluation of %d publics differs from the bit-by-bit oracle", numCons, numVars, n)
			}
		}
	}
}

func randomFrs(rng *mrand.Rand, n int) []ff.Fr {
	v := make([]ff.Fr, n)
	for i := range v {
		v[i].SetPseudoRandom(rng)
	}
	return v
}

// evalAt is evalCircuit on an explicit system.
func evalAt(sys *r1cs.System, public, rx, ry []ff.Fr, r *[3]ff.Fr) (vm, pub ff.Fr) {
	return evalCircuit(R1CS(sys), public, rx, ry, r)
}

// publicEvalOracle computes Σ_{i < len(public)} public[i]·eq(ry, bits(i))
// bit by bit in O(|public|·|ry|), with no eq table: the reference for the
// public evaluation in evalAt.
func publicEvalOracle(public []ff.Fr, ry []ff.Fr) ff.Fr {
	s := len(ry)
	var acc, term, one, f ff.Fr
	one.SetOne()
	for i := range public {
		term.Set(&public[i])
		for j := 0; j < s; j++ {
			if (i>>(s-1-j))&1 == 1 {
				f.Set(&ry[j])
			} else {
				f.Sub(&one, &ry[j])
			}
			term.Mul(&term, &f)
		}
		acc.Add(&acc, &term)
	}
	return acc
}

// FuzzSpartanPublicEval compares evalAt's public evaluation with the
// bit-by-bit oracle at a fuzzed public length, wire count and seed.
func FuzzSpartanPublicEval(f *testing.F) {
	f.Add(uint16(0), uint16(0), int64(1))
	f.Add(uint16(4), uint16(3), int64(2))
	f.Add(uint16(128), uint16(0), int64(3))
	f.Add(uint16(255), uint16(0), int64(4))
	f.Fuzz(func(t *testing.T, n, extra uint16, seed int64) {
		rng := mrand.New(mrand.NewSource(seed))
		np := 1 + int(n)%512
		numVars := np + int(extra)%512
		sys := randomSystem(rng, 1+rng.Intn(4), numVars)
		public := randomFrs(rng, np)
		rx, ry := randomFrs(rng, logDim(sys.NumConstraints())), randomFrs(rng, logDim(numVars))
		r := [3]ff.Fr(randomFrs(rng, 3))
		_, got := evalAt(sys, public, rx, ry, &r)
		if want := publicEvalOracle(public, ry); !got.Equal(&want) {
			t.Fatalf("%d publics over %d wires: public evaluation differs from the bit-by-bit oracle", np, numVars)
		}
	})
}
