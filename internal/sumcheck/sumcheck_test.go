package sumcheck

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/transcript"
)

func randVec(rng *mrand.Rand, n int) []ff.Fr {
	v := make([]ff.Fr, n)
	for i := range v {
		v[i].SetPseudoRandom(rng)
	}
	return v
}

// buildProductInstance builds Σ_x f(x)·g(x) with fresh clones for proving.
func buildProductInstance(rng *mrand.Rand, k int) (*Instance, *mle.Dense, *mle.Dense) {
	f := mle.NewDense(randVec(rng, 1<<k))
	g := mle.NewDense(randVec(rng, 1<<k))
	var one ff.Fr
	one.SetOne()
	ins, err := NewInstance(k, []Term{{Coeff: one, Factors: []*mle.Dense{f.Clone(), g.Clone()}}})
	if err != nil {
		panic(err)
	}
	return ins, f, g
}

func TestSumcheckHonestRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(400))
	for _, k := range []int{1, 2, 5} {
		ins, f, g := buildProductInstance(rng, k)
		claim := ins.Sum()

		trP := transcript.New("test")
		proof, chalP, finals := Prove(ins, trP)

		trV := transcript.New("test")
		chalV, final, err := Verify(claim, k, 2, proof, trV)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range chalP {
			if !chalP[i].Equal(&chalV[i]) {
				t.Fatal("prover/verifier challenge divergence")
			}
		}
		// Oracle check: final claim == f(r)·g(r).
		fr := f.Eval(chalV)
		gr := g.Eval(chalV)
		var want ff.Fr
		want.Mul(&fr, &gr)
		if !final.Equal(&want) {
			t.Fatal("final claim != oracle evaluation")
		}
		// And the prover's reported factor finals agree.
		if !finals[0][0].Equal(&fr) || !finals[0][1].Equal(&gr) {
			t.Fatal("prover finals mismatch")
		}
	}
}

func TestSumcheckCubicWithCoeffs(t *testing.T) {
	rng := mrand.New(mrand.NewSource(401))
	k := 4
	f := mle.NewDense(randVec(rng, 1<<k))
	g := mle.NewDense(randVec(rng, 1<<k))
	h := mle.NewDense(randVec(rng, 1<<k))
	var c1, c2 ff.Fr
	c1.SetPseudoRandom(rng)
	c2.SetPseudoRandom(rng)
	// Σ c1·f·g·h + c2·f  (degree 3 instance with a degree-1 term)
	ins, err := NewInstance(k, []Term{
		{Coeff: c1, Factors: []*mle.Dense{f.Clone(), g.Clone(), h.Clone()}},
		{Coeff: c2, Factors: []*mle.Dense{f.Clone()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	claim := ins.Sum()
	trP := transcript.New("cubic")
	proof, _, _ := Prove(ins, trP)
	trV := transcript.New("cubic")
	r, final, err := Verify(claim, k, 3, proof, trV)
	if err != nil {
		t.Fatal(err)
	}
	fr := f.Eval(r)
	gr := g.Eval(r)
	hr := h.Eval(r)
	var want, t2 ff.Fr
	want.Mul(&fr, &gr)
	want.Mul(&want, &hr)
	want.Mul(&want, &c1)
	t2.Mul(&c2, &fr)
	want.Add(&want, &t2)
	if !final.Equal(&want) {
		t.Fatal("cubic final claim mismatch")
	}
}

func TestSumcheckRejectsWrongClaim(t *testing.T) {
	rng := mrand.New(mrand.NewSource(402))
	ins, _, _ := buildProductInstance(rng, 3)
	claim := ins.Sum()
	var bad ff.Fr
	bad.Add(&claim, func() *ff.Fr { o := ff.NewFr(1); return &o }())
	trP := transcript.New("bad")
	proof, _, _ := Prove(ins, trP)
	trV := transcript.New("bad")
	if _, _, err := Verify(bad, 3, 2, proof, trV); err == nil {
		t.Fatal("wrong claim accepted")
	}
}

func TestSumcheckRejectsTamperedRound(t *testing.T) {
	rng := mrand.New(mrand.NewSource(403))
	ins, f, g := buildProductInstance(rng, 4)
	claim := ins.Sum()
	trP := transcript.New("tamper")
	proof, _, _ := Prove(ins, trP)
	// Tamper with a middle round polynomial.
	proof.RoundPolys[2][1].Add(&proof.RoundPolys[2][1], func() *ff.Fr { o := ff.NewFr(1); return &o }())
	trV := transcript.New("tamper")
	r, final, err := Verify(claim, 4, 2, proof, trV)
	if err != nil {
		return // rejected inside the rounds: fine
	}
	// Otherwise the final oracle check must fail.
	fr := f.Eval(r)
	gr := g.Eval(r)
	var want ff.Fr
	want.Mul(&fr, &gr)
	if final.Equal(&want) {
		t.Fatal("tampered proof survived both checks")
	}
}

func TestInterpolateAt(t *testing.T) {
	// p(t) = 3t² + 2t + 7 from evals at 0,1,2; check p(10) = 327.
	evals := []ff.Fr{ff.NewFr(7), ff.NewFr(12), ff.NewFr(23)}
	var r ff.Fr
	r.SetUint64(10)
	got := interpolateAt(evals, &r)
	want := ff.NewFr(327)
	if !got.Equal(&want) {
		t.Fatalf("interpolation got %v want 327", &got)
	}
}

func TestInstanceValidation(t *testing.T) {
	rng := mrand.New(mrand.NewSource(404))
	f := mle.NewDense(randVec(rng, 4)) // 2 vars
	var one ff.Fr
	one.SetOne()
	if _, err := NewInstance(3, []Term{{Coeff: one, Factors: []*mle.Dense{f}}}); err == nil {
		t.Fatal("mismatched factor accepted")
	}
	if _, err := NewInstance(2, []Term{{Coeff: one}}); err == nil {
		t.Fatal("empty factor list accepted")
	}
}

// BenchmarkSumcheckProve proves Spartan's two sumcheck shapes over 2¹⁴
// points: the outer eq·Az·Bz − eq·Cz with one shared eq table, and the
// inner product of two tables. It reports ns per hypercube point.
func BenchmarkSumcheckProve(b *testing.B) {
	const k = 14
	rng := mrand.New(mrand.NewSource(407))
	one := ff.NewFr(1)
	var minusOne ff.Fr
	minusOne.Neg(&one)
	tables := make([]*mle.Dense, 4)
	for i := range tables {
		tables[i] = mle.NewDense(randVec(rng, 1<<k))
	}
	for _, bc := range []struct {
		name  string
		terms func(f []*mle.Dense) []Term
	}{
		{"outer", func(f []*mle.Dense) []Term {
			return []Term{{Coeff: one, Factors: []*mle.Dense{f[0], f[1], f[2]}}, {Coeff: minusOne, Factors: []*mle.Dense{f[0], f[3]}}}
		}},
		{"inner", func(f []*mle.Dense) []Term {
			return []Term{{Coeff: one, Factors: []*mle.Dense{f[0], f[1]}}}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			fresh := make([]*mle.Dense, len(tables))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, t := range tables {
					fresh[j] = t.Clone()
				}
				ins, err := NewInstance(k, bc.terms(fresh))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				Prove(ins, transcript.New("bench"))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(1<<k), "ns/elem")
		})
	}
}
