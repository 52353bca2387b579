package sumcheck

import (
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/transcript"
)

// roundKnownAnswers pins SHA-256 over every round polynomial, challenge
// and final factor evaluation of seeded instances in the shapes Spartan
// and the matmul protocols prove. The digests were computed before the
// prover was rewritten to evaluate by addition: a mismatch means a proof
// byte moved. Never regenerate them to make a change pass.
var roundKnownAnswers = map[string]string{
	"spartan outer": "abf768cd4c0e3ea7109d0c97c6729bd05ac419e78702e2380b8ad86f9a473fa2",
	"spartan inner": "583dba2adc3bef42de16a1bc237343121a298cd5d516e35fa75e0d8ce792edd8",
	"matmul":        "87b14a0ab5412f1df7fcbe5d8c42c24be37548aace228b857fbbaa2f49059373",
	"coefficients":  "3ec446c4ce3ad2e6dac5da8bf5829d1b8a220a364c91ea40020769d2e1838844",
}

// knownAnswerInstances builds the pinned instances. Spartan's outer
// instance is eq·Az·Bz − eq·Cz over eq(τ,·); its inner one and the
// matmul shape are one product of two tables; the last mixes a random
// coefficient cubic with a lone linear term.
func knownAnswerInstances() map[string]func() *Instance {
	dense := func(seed int64, k int) *mle.Dense {
		return mle.NewDense(randVec(mrand.New(mrand.NewSource(seed)), 1<<k))
	}
	one := ff.NewFr(1)
	var minusOne, c ff.Fr
	minusOne.Neg(&one)
	c.SetPseudoRandom(mrand.New(mrand.NewSource(5)))
	build := func(k int, terms []Term) *Instance {
		ins, err := NewInstance(k, terms)
		if err != nil {
			panic(err)
		}
		return ins
	}
	return map[string]func() *Instance{
		"spartan outer": func() *Instance {
			const k = 10
			eq := &mle.Dense{NumVars: k, Evals: mle.EqTable(randVec(mrand.New(mrand.NewSource(1)), k))}
			return build(k, []Term{
				{Coeff: one, Factors: []*mle.Dense{eq.Clone(), dense(2, k), dense(3, k)}},
				{Coeff: minusOne, Factors: []*mle.Dense{eq, dense(4, k)}},
			})
		},
		"spartan inner": func() *Instance {
			return build(11, []Term{{Coeff: one, Factors: []*mle.Dense{dense(6, 11), dense(7, 11)}}})
		},
		"matmul": func() *Instance {
			return build(7, []Term{{Coeff: one, Factors: []*mle.Dense{dense(8, 7), dense(9, 7)}}})
		},
		"coefficients": func() *Instance {
			return build(6, []Term{
				{Coeff: c, Factors: []*mle.Dense{dense(10, 6), dense(11, 6), dense(12, 6)}},
				{Coeff: minusOne, Factors: []*mle.Dense{dense(13, 6)}},
			})
		},
	}
}

// proofDigest hashes the round polynomials, the challenges and the
// final factor evaluations, in that order.
func proofDigest(proof *Proof, chal []ff.Fr, finals [][]ff.Fr) string {
	h := sha256.New()
	put := func(xs []ff.Fr) {
		for i := range xs {
			b := xs[i].Bytes()
			h.Write(b[:])
		}
	}
	for _, p := range proof.RoundPolys {
		put(p)
	}
	put(chal)
	for _, f := range finals {
		put(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRoundPolynomialKnownAnswers(t *testing.T) {
	for name, build := range knownAnswerInstances() {
		ins := build()
		claim := ins.Sum()
		proof, chal, finals := Prove(ins, transcript.New("known-answers"))
		if _, _, err := Verify(claim, ins.NumVars, ins.Degree(), proof, transcript.New("known-answers")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := proofDigest(proof, chal, finals); got != roundKnownAnswers[name] {
			t.Errorf("%q: %q, want %q", name, got, roundKnownAnswers[name])
		}
	}
}
