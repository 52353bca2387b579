// Package spartan implements a transparent (no trusted setup) zk-SNARK for
// R1CS in the style of Spartan (CRYPTO 2020): two sumchecks reduce R1CS
// satisfiability to one evaluation of the witness multilinear extension,
// which is proved against a hash-based polynomial commitment
// (internal/pcs). This is the "zkVC-S" backend of the paper.
//
// Deviations from the reference system are deliberate and documented in
// DESIGN.md: the verifier evaluates the matrix MLEs itself instead of
// through the Spark commitment, in closed form for the CRPC matmul
// circuits (crpc.Circuit) and in O(nnz) for an explicit system, over a
// split eq(ry, ·) table; and the PCS is a tensor-code commitment, so
// column openings are binding but not hiding.
package spartan

import (
	"errors"
	"fmt"
	"sync/atomic"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/sumcheck"
	"zkvc/internal/transcript"
)

// Proof is a Spartan proof.
type Proof struct {
	Comm       pcs.Commitment
	Sum1       *sumcheck.Proof
	VA, VB, VC ff.Fr
	Sum2       *sumcheck.Proof
	PrivEval   ff.Fr
	Opening    *pcs.Opening
}

// SizeBytes estimates the wire size of the proof.
func (p *Proof) SizeBytes() int {
	n := 32 + 3*32 + 32 // root + va/vb/vc + privEval
	for _, r := range p.Sum1.RoundPolys {
		n += 32 * len(r)
	}
	for _, r := range p.Sum2.RoundPolys {
		n += 32 * len(r)
	}
	n += p.Opening.SizeBytes()
	return n
}

const protocolLabel = "zkvc.spartan.v1"

// logDim returns ceil(log2(max(n,1))).
func logDim(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// bindRows accumulates Σ_M r_M·M̃(rx, ·) over the matrices A, B, C into
// mz (zeroed, 1<<sy long) in one pass over the constraints, from one
// eq(rx, ·) table: mz[col] += (r_M·eq(rx,q))·coeff.
func bindRows(sys *r1cs.System, rx []ff.Fr, r *[3]ff.Fr, mz []ff.Fr) {
	eq := arena.Frs(1 << len(rx))
	mle.EqTableInto(rx, eq)
	var w, t ff.Fr
	for q := range sys.Constraints {
		c := &sys.Constraints[q]
		for m, lc := range [3]r1cs.LC{c.A, c.B, c.C} {
			if len(lc) == 0 {
				continue
			}
			w.Mul(&r[m], &eq[q])
			for i := range lc {
				if lc[i].Coeff.IsOne() {
					mz[lc[i].V].Add(&mz[lc[i].V], &w)
					continue
				}
				t.Mul(&w, &lc[i].Coeff)
				mz[lc[i].V].Add(&mz[lc[i].V], &t)
			}
		}
	}
	arena.PutFrs(eq)
}

// Circuit is the verifier's view of an R1CS instance: its size and its
// matrices' MLEs. R1CS wraps an explicit system; crpc.Circuit evaluates
// the CRPC matmul matrices in closed form and builds no system.
type Circuit interface {
	// Size returns the constraint, wire and public-wire counts; the
	// constant-1 wire is public wire 0.
	Size() (constraints, vars, public int)
	// EvalMatrices returns rA·Ã(rx,ry) + rB·B̃(rx,ry) + rC·C̃(rx,ry), with
	// eq(ry, ·) given as a split table.
	EvalMatrices(rx []ff.Fr, eqY *mle.SplitEq, r *[3]ff.Fr) ff.Fr
}

// R1CS is the Circuit of an explicit system (nil for a nil system).
func R1CS(sys *r1cs.System) Circuit {
	if sys == nil {
		return nil
	}
	return system{sys}
}

type system struct{ *r1cs.System }

func (s system) Size() (int, int, int) { return s.NumConstraints(), s.NumVars, s.NumPublic }

// EvalMatrices binds the rows to rx in O(nnz) and dots the bound columns
// with eq(ry, ·) over the NumVars live wires only.
func (s system) EvalMatrices(rx []ff.Fr, eqY *mle.SplitEq, r *[3]ff.Fr) ff.Fr {
	mz := arena.Frs(s.NumVars)
	defer arena.PutFrs(mz)
	bindRows(s.System, rx, r, mz)
	return eqY.Dot(0, mz)
}

// evalCircuit returns vm = Σ_M r_M·M̃(rx,ry) and pub̃(ry) = Σᵢ public[i]·eq(ry, i)
// against one eq(ry, ·) table split as the PCS splits it.
func evalCircuit(c Circuit, public, rx, ry []ff.Fr, r *[3]ff.Fr) (vm, pub ff.Fr) {
	eqY := mle.NewSplitEq(ry, len(ry)/2)
	defer eqY.Release()
	return c.EvalMatrices(rx, eqY, r), eqY.Dot(0, public)
}

// Prove produces a Spartan proof for a satisfying assignment z.
func Prove(sys *r1cs.System, z []ff.Fr, params pcs.Params) (*Proof, error) {
	if len(z) != sys.NumVars {
		return nil, fmt.Errorf("spartan: assignment length %d != %d", len(z), sys.NumVars)
	}
	sx := logDim(sys.NumConstraints())
	sy := logDim(sys.NumVars)

	// One parallel pass over the constraints evaluates Az, Bz and Cz for
	// sumcheck 1 and checks Az·Bz = Cz on the way, before anything is
	// committed. A violation is rare, so only then does the serial
	// Satisfied run, to name the lowest violated constraint.
	az := arena.Frs(1 << sx)
	bz := arena.Frs(1 << sx)
	cz := arena.Frs(1 << sx)
	var violated atomic.Bool
	parallel.For(len(sys.Constraints), 512, func(start, end int) {
		var ab ff.Fr
		for q := start; q < end; q++ {
			az[q] = r1cs.EvalLC(sys.Constraints[q].A, z)
			bz[q] = r1cs.EvalLC(sys.Constraints[q].B, z)
			cz[q] = r1cs.EvalLC(sys.Constraints[q].C, z)
			if ab.Mul(&az[q], &bz[q]); !ab.Equal(&cz[q]) {
				violated.Store(true)
			}
		}
	})
	if violated.Load() {
		arena.PutFrs(az)
		arena.PutFrs(bz)
		arena.PutFrs(cz)
		return nil, fmt.Errorf("spartan: %w", sys.Satisfied(z))
	}

	// Commit to the private slice (public slots zeroed). Every prover
	// working vector below is rented scratch: the PCS copies priv into its
	// own state, the sumchecks fold the vectors down to scalars, and the
	// proof only ever captures plainly allocated copies — so each buffer
	// is returned to the arena as soon as its protocol phase ends.
	priv := arena.Frs(1 << sy)
	for i := sys.NumPublic; i < sys.NumVars; i++ {
		priv[i] = z[i]
	}
	comm, st, err := pcs.Commit(priv, params)
	arena.PutFrs(priv)
	if err != nil {
		return nil, err
	}

	tr := transcript.New(protocolLabel)
	tr.Append("comm", comm.Root[:])
	tr.AppendFrs("public", z[:sys.NumPublic])

	// Sumcheck 1: 0 = Σ_x eq(τ,x)·(Az(x)·Bz(x) − Cz(x)). Both terms begin
	// with the one eq table, so the prover folds it once per round and
	// multiplies it in once per point.
	tau := tr.ChallengeFrs("tau", sx)
	eqTab := arena.Frs(1 << sx)
	mle.EqTableInto(tau, eqTab)
	eqTau := &mle.Dense{NumVars: sx, Evals: eqTab}
	azM := &mle.Dense{NumVars: sx, Evals: az}
	bzM := &mle.Dense{NumVars: sx, Evals: bz}
	czM := &mle.Dense{NumVars: sx, Evals: cz}
	var one, minusOne ff.Fr
	one.SetOne()
	minusOne.Neg(&one)
	ins1, err := sumcheck.NewInstance(sx, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{eqTau, azM, bzM}},
		{Coeff: minusOne, Factors: []*mle.Dense{eqTau, czM}},
	})
	if err != nil {
		return nil, err
	}
	sum1, rx, finals1 := sumcheck.Prove(ins1, tr)
	va, vb, vc := finals1[0][1], finals1[0][2], finals1[1][1]
	arena.PutFrs(az)
	arena.PutFrs(bz)
	arena.PutFrs(cz)
	arena.PutFrs(eqTab)
	tr.AppendFr("va", &va)
	tr.AppendFr("vb", &vb)
	tr.AppendFr("vc", &vc)

	// Sumcheck 2: rA·va + rB·vb + rC·vc = Σ_y M_rx(y)·z̃(y).
	r := [3]ff.Fr{tr.ChallengeFr("rA"), tr.ChallengeFr("rB"), tr.ChallengeFr("rC")}
	mz := arena.Frs(1 << sy)
	bindRows(sys, rx, &r, mz)
	zPad := arena.Frs(1 << sy)
	copy(zPad, z)
	ins2, err := sumcheck.NewInstance(sy, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{
			{NumVars: sy, Evals: mz},
			{NumVars: sy, Evals: zPad},
		}},
	})
	if err != nil {
		return nil, err
	}
	sum2, ry, _ := sumcheck.Prove(ins2, tr)
	arena.PutFrs(mz)
	arena.PutFrs(zPad)

	// Witness evaluation: z̃(ry) = pub̃(ry) + priṽ(ry), where priṽ is the
	// committed polynomial.
	privEval := st.Eval(ry)
	tr.AppendFr("priv.eval", &privEval)
	opening := st.Open(ry, tr)
	st.Release()

	return &Proof{
		Comm: *comm, Sum1: sum1, VA: va, VB: vb, VC: vc,
		Sum2: sum2, PrivEval: privEval, Opening: opening,
	}, nil
}

// ErrInvalidProof is returned when verification fails.
var ErrInvalidProof = errors.New("spartan: invalid proof")

// Verify checks a Spartan proof against the circuit and public inputs
// (public must start with the constant 1, as in the assignment).
func Verify(sys *r1cs.System, proof *Proof, public []ff.Fr, params pcs.Params) error {
	return VerifyCircuit(R1CS(sys), proof, public, params)
}

// VerifyCircuit is Verify against any Circuit: one split eq(ry, ·) table
// serves the matrix evaluation and pub̃(ry) = Σᵢ public[i]·eq(ry, i).
func VerifyCircuit(c Circuit, proof *Proof, public []ff.Fr, params pcs.Params) error {
	if proof == nil || proof.Sum1 == nil || proof.Sum2 == nil || proof.Opening == nil {
		return fmt.Errorf("%w: missing proof part", ErrInvalidProof)
	}
	numCons, numVars, numPublic := c.Size()
	if len(public) != numPublic {
		return fmt.Errorf("spartan: public witness length %d != %d", len(public), numPublic)
	}
	if numPublic == 0 || !public[0].IsOne() {
		return errors.New("spartan: public witness must start with constant 1")
	}
	sx := logDim(numCons)
	sy := logDim(numVars)

	tr := transcript.New(protocolLabel)
	tr.Append("comm", proof.Comm.Root[:])
	tr.AppendFrs("public", public)

	tau := tr.ChallengeFrs("tau", sx)
	var zero ff.Fr
	rx, final1, err := sumcheck.Verify(zero, sx, 3, proof.Sum1, tr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProof, err)
	}
	// final1 must equal eq(τ,rx)·(va·vb − vc).
	eqv := mle.EqEval(tau, rx)
	var want ff.Fr
	want.Mul(&proof.VA, &proof.VB)
	want.Sub(&want, &proof.VC)
	want.Mul(&want, &eqv)
	if !want.Equal(&final1) {
		return fmt.Errorf("%w: inner R1CS identity fails at rx", ErrInvalidProof)
	}
	tr.AppendFr("va", &proof.VA)
	tr.AppendFr("vb", &proof.VB)
	tr.AppendFr("vc", &proof.VC)

	r := [3]ff.Fr{tr.ChallengeFr("rA"), tr.ChallengeFr("rB"), tr.ChallengeFr("rC")}
	var claim2, t ff.Fr
	for m, v := range [3]*ff.Fr{&proof.VA, &proof.VB, &proof.VC} {
		t.Mul(&r[m], v)
		claim2.Add(&claim2, &t)
	}

	ry, final2, err := sumcheck.Verify(claim2, sy, 2, proof.Sum2, tr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProof, err)
	}

	// vM = rA·Ã(rx,ry) + rB·B̃(rx,ry) + rC·C̃(rx,ry), evaluated directly,
	// and z̃(ry) = pub̃(ry) + priṽ(ry).
	vm, vz := evalCircuit(c, public, rx, ry, &r)
	vz.Add(&vz, &proof.PrivEval)
	if vm.Mul(&vm, &vz); !vm.Equal(&final2) {
		return fmt.Errorf("%w: matrix–witness product fails at (rx,ry)", ErrInvalidProof)
	}

	tr.AppendFr("priv.eval", &proof.PrivEval)
	if err := pcs.VerifyOpen(&proof.Comm, ry, &proof.PrivEval, proof.Opening, params, tr); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidProof, err)
	}
	return nil
}
