// Package sumcheck implements the classic sumcheck protocol for claims of
// the form  claim = Σ_{x ∈ {0,1}^k} Σ_t coeff_t · Π_j f_{t,j}(x)  where
// every factor is a dense multilinear extension. Round polynomials are sent
// as evaluations at 0..deg; Fiat–Shamir challenges come from a transcript.
package sumcheck

import (
	"errors"
	"fmt"
	"slices"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/parallel"
	"zkvc/internal/transcript"
)

// Term is coeff · Π factors. A factor may be shared between terms and
// repeated within one: the prover finds tables by pointer and folds each
// distinct one once per round.
type Term struct {
	Coeff   ff.Fr
	Factors []*mle.Dense
}

// Instance is a sum of terms over a shared hypercube.
type Instance struct {
	NumVars int
	Terms   []Term
}

// maxDegree bounds the degree of an instance: the Lagrange weights of
// every degree up to it are inverted once, when the package loads.
const maxDegree = 16

// NewInstance validates factor shapes and the degree and wraps them.
func NewInstance(numVars int, terms []Term) (*Instance, error) {
	for i, t := range terms {
		if len(t.Factors) == 0 {
			return nil, fmt.Errorf("sumcheck: term %d has no factors", i)
		}
		for _, f := range t.Factors {
			if f.NumVars != numVars {
				return nil, fmt.Errorf("sumcheck: factor has %d vars, want %d", f.NumVars, numVars)
			}
		}
	}
	ins := &Instance{NumVars: numVars, Terms: terms}
	if d := ins.Degree(); d > maxDegree {
		return nil, fmt.Errorf("sumcheck: degree %d above %d", d, maxDegree)
	}
	return ins, nil
}

// Degree is the maximum number of factors in any term: the degree of the
// round polynomials.
func (ins *Instance) Degree() int {
	d := 0
	for _, t := range ins.Terms {
		if len(t.Factors) > d {
			d = len(t.Factors)
		}
	}
	return d
}

// Sum computes the full hypercube sum (the honest claim).
func (ins *Instance) Sum() ff.Fr {
	var acc ff.Fr
	n := 1 << ins.NumVars
	var prod, t ff.Fr
	for x := 0; x < n; x++ {
		for _, term := range ins.Terms {
			prod.Set(&term.Coeff)
			for _, f := range term.Factors {
				prod.Mul(&prod, &f.Evals[x])
			}
			t.Set(&prod)
			acc.Add(&acc, &t)
		}
	}
	return acc
}

// Proof is the prover's messages: one round polynomial per variable, given
// as evaluations at 0, 1, ..., Degree.
type Proof struct {
	RoundPolys [][]ff.Fr
}

// Prove runs the sumcheck prover, consuming (mutating) the instance's
// factors. It returns the proof, the bound challenge point, and the final
// evaluations of each term's factors at that point (in term order).
func Prove(ins *Instance, tr *transcript.Transcript) (*Proof, []ff.Fr, [][]ff.Fr) {
	pl := newPlan(ins)
	proof := &Proof{RoundPolys: make([][]ff.Fr, ins.NumVars)}
	challenges := make([]ff.Fr, ins.NumVars)

	// claim is p₍ᵢ₋₁₎(rᵢ₋₁), interpolated as the verifier does; known is
	// nil until the first round has been sent.
	var claim ff.Fr
	var known *ff.Fr
	for round := 0; round < ins.NumVars; round++ {
		evals := pl.roundPolynomial(known)
		proof.RoundPolys[round] = evals
		tr.AppendFrs("sumcheck.round", evals)
		r := tr.ChallengeFr("sumcheck.challenge")
		challenges[round] = r
		claim, known = interpolateAt(evals, &r), &claim
		for _, f := range pl.tables {
			f.Fix(&r)
		}
	}
	finals := make([][]ff.Fr, len(ins.Terms))
	for ti, term := range ins.Terms {
		fs := make([]ff.Fr, len(term.Factors))
		for fi, f := range term.Factors {
			fs[fi] = f.Evals[0]
		}
		finals[ti] = fs
	}
	return proof, challenges, finals
}

// plan is an instance with its factors found by pointer: the distinct
// tables, each term as indices into them, and the table that begins
// every term (lead), which is multiplied in once after the sum of terms.
type plan struct {
	tables []*mle.Dense
	terms  []planTerm
	lead   int // −1 when the terms begin with different tables
	deg    int
}

// planTerm is coeff · Π tables[idx], the lead left out. sign is +1 or −1
// when coeff is, so that the coefficient is added, not multiplied.
type planTerm struct {
	coeff ff.Fr
	sign  int
	idx   []int
}

func newPlan(ins *Instance) *plan {
	pl := &plan{lead: -1, deg: ins.Degree()}
	for _, term := range ins.Terms {
		pt := planTerm{coeff: term.Coeff}
		var neg ff.Fr
		switch {
		case term.Coeff.IsOne():
			pt.sign = 1
		case neg.Neg(&term.Coeff).IsOne():
			pt.sign = -1
		}
		for _, f := range term.Factors {
			k := slices.Index(pl.tables, f)
			if k < 0 {
				k = len(pl.tables)
				pl.tables = append(pl.tables, f)
			}
			pt.idx = append(pt.idx, k)
		}
		pl.terms = append(pl.terms, pt)
	}
	for _, pt := range pl.terms {
		if pt.idx[0] != pl.terms[0].idx[0] {
			return pl
		}
	}
	for i := range pl.terms {
		pl.lead = pl.terms[i].idx[0]
		pl.terms[i].idx = pl.terms[i].idx[1:]
	}
	return pl
}

// roundGrain is the number of hypercube points a borrowed worker chews
// per chunk. Each point costs deg additions per distinct table and, per
// evaluated t, one multiplication per non-lead factor beyond a term's
// first, one per non-±1 coefficient and one for the lead.
const roundGrain = 256

// roundPolynomial computes the current round's univariate polynomial
// evaluated at t = 0..deg:  p(t) = Σ_{x'} Σ_terms coeff·Π_j f_j(t, x').
// Each table is evaluated by repeated addition, f(t+1) = f(t) + f(1)−f(0).
// Given the running claim, p(1) = claim − p(0) is not summed: the
// identity is exact, so the evaluations are those of the full sum. The
// hypercube is split across the shared worker budget; per-chunk partial
// sums are folded in chunk order (field addition is exact, so the result
// is identical at every parallelism level).
func (pl *plan) roundPolynomial(claim *ff.Fr) []ff.Fr {
	deg, w := pl.deg, pl.deg+1
	half := len(pl.tables[0].Evals) / 2
	acc := parallel.MapReduce(parallel.Default(), half, roundGrain,
		func(start, end int) []ff.Fr {
			out := arena.Frs(w)
			vals := arena.Frs(len(pl.tables) * w) // vals[k·w+t] = table k at (t, x')
			var inner, prod, d ff.Fr
			for x := start; x < end; x++ {
				for k, f := range pl.tables {
					v := vals[k*w : k*w+w]
					v[0], v[1] = f.Evals[x], f.Evals[half+x]
					d.Sub(&v[1], &v[0])
					for t := 2; t <= deg; t++ {
						v[t].Add(&v[t-1], &d)
					}
				}
				for t := 0; t <= deg; t++ {
					if t == 1 && claim != nil {
						continue
					}
					inner.SetZero()
					for i := range pl.terms {
						pt := &pl.terms[i]
						if len(pt.idx) == 0 {
							prod.SetOne()
						} else {
							prod = vals[pt.idx[0]*w+t]
							for _, k := range pt.idx[1:] {
								prod.Mul(&prod, &vals[k*w+t])
							}
						}
						switch pt.sign {
						case 1:
							inner.Add(&inner, &prod)
						case -1:
							inner.Sub(&inner, &prod)
						default:
							prod.Mul(&prod, &pt.coeff)
							inner.Add(&inner, &prod)
						}
					}
					if pl.lead >= 0 {
						inner.Mul(&inner, &vals[pl.lead*w+t])
					}
					out[t].Add(&out[t], &inner)
				}
			}
			arena.PutFrs(vals)
			return out
		},
		func(acc, next []ff.Fr) []ff.Fr {
			for t := range acc {
				acc[t].Add(&acc[t], &next[t])
			}
			arena.PutFrs(next)
			return acc
		})
	// The round polynomial escapes into the proof, so it is copied out of
	// the rented accumulator into plainly allocated memory.
	evals := make([]ff.Fr, w)
	copy(evals, acc)
	arena.PutFrs(acc)
	if claim != nil {
		evals[1].Sub(claim, &evals[0])
	}
	return evals
}

// ErrSumcheck is returned on any verification failure.
var ErrSumcheck = errors.New("sumcheck: verification failed")

// Verify replays the verifier side: it checks the claim against the round
// polynomials and returns the challenge point plus the final claim
// p_k(r_k), which the caller must check against an oracle evaluation of
// the summed polynomial at the returned point.
func Verify(claim ff.Fr, numVars, degree int, proof *Proof, tr *transcript.Transcript) ([]ff.Fr, ff.Fr, error) {
	if len(proof.RoundPolys) != numVars {
		return nil, ff.Fr{}, fmt.Errorf("%w: %d rounds, want %d", ErrSumcheck, len(proof.RoundPolys), numVars)
	}
	if degree < 1 || degree > maxDegree {
		return nil, ff.Fr{}, fmt.Errorf("%w: degree %d outside 1..%d", ErrSumcheck, degree, maxDegree)
	}
	challenges := make([]ff.Fr, numVars)
	cur := claim
	for round := 0; round < numVars; round++ {
		evals := proof.RoundPolys[round]
		if len(evals) != degree+1 {
			return nil, ff.Fr{}, fmt.Errorf("%w: round %d has %d evals, want %d", ErrSumcheck, round, len(evals), degree+1)
		}
		var sum01 ff.Fr
		sum01.Add(&evals[0], &evals[1])
		if !sum01.Equal(&cur) {
			return nil, ff.Fr{}, fmt.Errorf("%w: round %d: p(0)+p(1) != claim", ErrSumcheck, round)
		}
		tr.AppendFrs("sumcheck.round", evals)
		r := tr.ChallengeFr("sumcheck.challenge")
		challenges[round] = r
		cur = interpolateAt(evals, &r)
	}
	return challenges, cur, nil
}

// lagrangeWeights[d][i] = 1 / (i!·(d−i)!·(−1)^(d−i)), the inverted
// denominators of Lagrange interpolation on the nodes 0..d, from one
// inversion of maxDegree!.
var lagrangeWeights = func() (w [maxDegree + 1][maxDegree + 1]ff.Fr) {
	var fact, invFact [maxDegree + 1]ff.Fr
	fact[0].SetOne()
	for i := 1; i <= maxDegree; i++ {
		n := ff.NewFr(uint64(i))
		fact[i].Mul(&fact[i-1], &n)
	}
	invFact[maxDegree].Inverse(&fact[maxDegree])
	for i := maxDegree; i > 0; i-- {
		n := ff.NewFr(uint64(i))
		invFact[i-1].Mul(&invFact[i], &n)
	}
	for d := 0; d <= maxDegree; d++ {
		for i := 0; i <= d; i++ {
			w[d][i].Mul(&invFact[i], &invFact[d-i])
			if (d-i)%2 == 1 {
				w[d][i].Neg(&w[d][i])
			}
		}
	}
	return w
}()

// interpolateAt evaluates the degree-d polynomial given by its values at
// 0..d at the point r (Lagrange on consecutive integer nodes), d ≤
// maxDegree, without allocating.
func interpolateAt(evals []ff.Fr, r *ff.Fr) ff.Fr {
	d := len(evals) - 1
	// prefix[i] = Π_{j<i} (r−j), suffix[i] = Π_{j>i} (r−j)
	var prefix, suffix [maxDegree + 1]ff.Fr
	var t, node ff.Fr
	prefix[0].SetOne()
	for i := 1; i <= d; i++ {
		node.SetUint64(uint64(i - 1))
		t.Sub(r, &node)
		prefix[i].Mul(&prefix[i-1], &t)
	}
	suffix[d].SetOne()
	for i := d - 1; i >= 0; i-- {
		node.SetUint64(uint64(i + 1))
		t.Sub(r, &node)
		suffix[i].Mul(&suffix[i+1], &t)
	}
	var acc ff.Fr
	for i := 0; i <= d; i++ {
		t.Mul(&prefix[i], &suffix[i])
		t.Mul(&t, &lagrangeWeights[d][i])
		t.Mul(&t, &evals[i])
		acc.Add(&acc, &t)
	}
	return acc
}
