package sumcheck

import (
	"errors"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/transcript"
)

// referenceProve is the prover as it was before evaluation by addition:
// every term multiplies its coefficient and each factor in at every
// t = 0..deg, factors are evaluated as f0 + t·(f1−f0), and every factor
// of every term is folded. It is the oracle the prover is fuzzed
// against. A factor shared between terms would be folded twice, so it
// needs an instance whose factors are all distinct tables.
func referenceProve(ins *Instance, tr *transcript.Transcript) (*Proof, []ff.Fr, [][]ff.Fr) {
	deg := ins.Degree()
	proof := &Proof{RoundPolys: make([][]ff.Fr, ins.NumVars)}
	challenges := make([]ff.Fr, ins.NumVars)
	for round := 0; round < ins.NumVars; round++ {
		evals := referenceRoundPolynomial(ins, deg)
		proof.RoundPolys[round] = evals
		tr.AppendFrs("sumcheck.round", evals)
		r := tr.ChallengeFr("sumcheck.challenge")
		challenges[round] = r
		for _, term := range ins.Terms {
			for _, f := range term.Factors {
				f.Fix(&r)
			}
		}
	}
	finals := make([][]ff.Fr, len(ins.Terms))
	for ti, term := range ins.Terms {
		for _, f := range term.Factors {
			finals[ti] = append(finals[ti], f.Evals[0])
		}
	}
	return proof, challenges, finals
}

func referenceRoundPolynomial(ins *Instance, deg int) []ff.Fr {
	half := len(ins.Terms[0].Factors[0].Evals) / 2
	out := make([]ff.Fr, deg+1)
	var prod, diff, ft, tFr ff.Fr
	for _, term := range ins.Terms {
		for x := 0; x < half; x++ {
			for t := 0; t <= deg; t++ {
				prod.Set(&term.Coeff)
				for _, f := range term.Factors {
					f0, f1 := &f.Evals[x], &f.Evals[half+x]
					switch t {
					case 0:
						ft.Set(f0)
					case 1:
						ft.Set(f1)
					default:
						diff.Sub(f1, f0)
						tFr.SetUint64(uint64(t))
						ft.Mul(&diff, &tFr)
						ft.Add(&ft, f0)
					}
					prod.Mul(&prod, &ft)
				}
				out[t].Add(&out[t], &prod)
			}
		}
	}
	return out
}

// fuzzInstances decodes a fuzz input into one instance twice: shared
// reuses tables by pointer across and within terms as the layout says,
// cloned gives every factor occurrence its own copy. Each layout byte
// picks a term's factor count (1..4) and coefficient (0, +1, −1 or
// random); each following byte reuses an earlier table or draws a new one.
func fuzzInstances(seed int64, numVars, numTerms uint8, layout []byte) (shared, cloned *Instance) {
	rng := mrand.New(mrand.NewSource(seed))
	k := int(numVars%8) + 1
	next := func() byte {
		if len(layout) == 0 {
			return 0
		}
		b := layout[0]
		layout = layout[1:]
		return b
	}
	var tables []*mle.Dense
	var sharedTerms, clonedTerms []Term
	for range int(numTerms%4) + 1 {
		b := next()
		var coeff ff.Fr
		switch b >> 4 % 4 {
		case 1:
			coeff.SetOne()
		case 2:
			coeff.SetOne()
			coeff.Neg(&coeff)
		case 3:
			coeff.SetPseudoRandom(rng)
		}
		st, ct := Term{Coeff: coeff}, Term{Coeff: coeff}
		for range int(b%4) + 1 {
			pick := int(next())
			if pick >= len(tables) {
				tables = append(tables, mle.NewDense(randVec(rng, 1<<k)))
				pick = len(tables) - 1
			}
			st.Factors = append(st.Factors, tables[pick])
			ct.Factors = append(ct.Factors, tables[pick].Clone())
		}
		sharedTerms, clonedTerms = append(sharedTerms, st), append(clonedTerms, ct)
	}
	shared, err := NewInstance(k, sharedTerms)
	if err != nil {
		panic(err)
	}
	cloned, err = NewInstance(k, clonedTerms)
	if err != nil {
		panic(err)
	}
	return shared, cloned
}

func sameProofs(t *testing.T, what string, p1, p2 *Proof, c1, c2 []ff.Fr, f1, f2 [][]ff.Fr) {
	t.Helper()
	if proofDigest(p1, c1, f1) != proofDigest(p2, c2, f2) {
		t.Fatalf("%s: round polynomials, challenges or finals differ", what)
	}
}

// FuzzSumcheck proves each instance with shared tables and checks the
// round polynomials, challenges and finals against referenceProve on
// the cloned instance, and that the verifier accepts.
func FuzzSumcheck(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), []byte{0x12, 0, 1, 2, 0x21, 0, 3})          // Spartan's eq·Az·Bz − eq·Cz
	f.Add(int64(2), uint8(5), uint8(0), []byte{0x11, 0, 1})                         // one product
	f.Add(int64(3), uint8(2), uint8(2), []byte{0x33, 0, 0, 1, 0, 0x00, 1, 0x20, 2}) // repeats, zero coefficient
	f.Add(int64(4), uint8(0), uint8(3), []byte{0x13, 9, 0, 0, 0, 0x31, 0, 1, 0x22, 1, 2, 3, 0x10, 0})
	f.Fuzz(func(t *testing.T, seed int64, numVars, numTerms uint8, layout []byte) {
		shared, cloned := fuzzInstances(seed, numVars, numTerms, layout)
		claim := shared.Sum()
		p1, c1, f1 := Prove(shared, transcript.New("fuzz"))
		p2, c2, f2 := referenceProve(cloned, transcript.New("fuzz"))
		sameProofs(t, "shared tables vs reference", p1, p2, c1, c2, f1, f2)
		if _, _, err := Verify(claim, shared.NumVars, shared.Degree(), p1, transcript.New("fuzz")); err != nil {
			t.Fatal(err)
		}
	})
}

// A factor shared between terms, and one repeated within a term, is
// folded once per round, and the proof equals that of the same instance
// with every factor cloned.
func TestSumcheckSharedFactor(t *testing.T) {
	const k = 5
	one := ff.NewFr(1)
	build := func(clone bool) *Instance {
		rng := mrand.New(mrand.NewSource(405))
		f, g, h := mle.NewDense(randVec(rng, 1<<k)), mle.NewDense(randVec(rng, 1<<k)), mle.NewDense(randVec(rng, 1<<k))
		use := func(d *mle.Dense) *mle.Dense {
			if clone {
				return d.Clone()
			}
			return d
		}
		ins, err := NewInstance(k, []Term{
			{Coeff: one, Factors: []*mle.Dense{use(f), use(g)}},
			{Coeff: one, Factors: []*mle.Dense{use(f), use(h), use(h)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	shared := build(false)
	claim := shared.Sum()
	p1, c1, f1 := Prove(shared, transcript.New("shared"))
	if _, _, err := Verify(claim, k, 3, p1, transcript.New("shared")); err != nil {
		t.Fatal(err)
	}
	p2, c2, f2 := Prove(build(true), transcript.New("shared"))
	sameProofs(t, "shared vs cloned", p1, p2, c1, c2, f1, f2)
}

// NewInstance rejects a degree above maxDegree, and Verify answers
// ErrSumcheck for a degree outside 1..maxDegree instead of indexing past
// the interpolation weights.
func TestDegreeBound(t *testing.T) {
	f := mle.NewDense(randVec(mrand.New(mrand.NewSource(406)), 4))
	factors := make([]*mle.Dense, maxDegree+1)
	for i := range factors {
		factors[i] = f
	}
	if _, err := NewInstance(2, []Term{{Coeff: ff.NewFr(1), Factors: factors}}); err == nil {
		t.Fatalf("degree %d accepted", maxDegree+1)
	}
	if _, err := NewInstance(2, []Term{{Coeff: ff.NewFr(1), Factors: factors[:maxDegree]}}); err != nil {
		t.Fatalf("degree %d rejected: %v", maxDegree, err)
	}
	for _, d := range []int{-1, 0, maxDegree + 1} {
		n := max(d+1, 0)
		proof := &Proof{RoundPolys: [][]ff.Fr{make([]ff.Fr, n), make([]ff.Fr, n)}}
		if _, _, err := Verify(ff.Fr{}, 2, d, proof, transcript.New("degree")); !errors.Is(err, ErrSumcheck) {
			t.Fatalf("degree %d: got %v, want ErrSumcheck", d, err)
		}
	}
}
