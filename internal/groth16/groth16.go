// Package groth16 implements the Groth16 zk-SNARK (EUROCRYPT 2016) over
// BN254: circuit-specific trusted setup, 3-element proofs, constant-time
// verification via four pairings.
package groth16

import (
	"errors"
	"fmt"
	mrand "math/rand"

	"zkvc/internal/arena"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/parallel"
	"zkvc/internal/qap"
	"zkvc/internal/r1cs"
)

// ProvingKey holds the prover's share of the CRS.
type ProvingKey struct {
	AlphaG1, BetaG1, DeltaG1 curve.G1Affine
	BetaG2, DeltaG2          curve.G2Affine

	A  []curve.G1Affine // [u_i(τ)]₁ for every wire i
	B1 []curve.G1Affine // [v_i(τ)]₁
	B2 []curve.G2Affine // [v_i(τ)]₂
	K  []curve.G1Affine // [(β·u_i + α·v_i + w_i)/δ]₁ for private wires
	H  []curve.G1Affine // [τ^q·Z_H(τ)/δ]₁ for q = 0..N−2
}

// VerifyingKey holds the verifier's share of the CRS.
type VerifyingKey struct {
	AlphaG1                  curve.G1Affine
	BetaG2, GammaG2, DeltaG2 curve.G2Affine
	IC                       []curve.G1Affine // [(β·u_i + α·v_i + w_i)/γ]₁ for public wires
}

// Proof is a Groth16 proof: two G1 points and one G2 point, 192 bytes
// uncompressed.
type Proof struct {
	A curve.G1Affine
	B curve.G2Affine
	C curve.G1Affine
}

// SizeBytes returns the wire size of the proof (uncompressed affine
// coordinates: 2×32 for G1, double for G2).
func (p *Proof) SizeBytes() int { return 64 + 128 + 64 }

// Setup runs the circuit-specific trusted setup. The toxic waste
// (τ, α, β, γ, δ) is drawn from rng and discarded; pass a crypto source in
// production, a seeded source in benchmarks.
func Setup(sys *r1cs.System, rng *mrand.Rand) (*ProvingKey, *VerifyingKey, error) {
	d, err := qap.Domain(sys)
	if err != nil {
		return nil, nil, err
	}
	var tau, alpha, beta, gamma, delta ff.Fr
	for {
		tau.SetPseudoRandom(rng)
		if z := d.VanishingAt(&tau); !z.IsZero() && !tau.IsZero() {
			break
		}
	}
	nonzero := func(x *ff.Fr) {
		for {
			x.SetPseudoRandom(rng)
			if !x.IsZero() {
				return
			}
		}
	}
	nonzero(&alpha)
	nonzero(&beta)
	nonzero(&gamma)
	nonzero(&delta)

	u, v, w := qap.EvalAtTau(sys, d, &tau)
	nVars := sys.NumVars
	nPub := sys.NumPublic

	var gammaInv, deltaInv ff.Fr
	gammaInv.Inverse(&gamma)
	deltaInv.Inverse(&delta)

	// k_i = β·u_i + α·v_i + w_i, split by visibility. Every index writes
	// its own slot, so the loop fans out over the shared worker budget.
	ic := make([]ff.Fr, nPub)
	kPriv := make([]ff.Fr, nVars-nPub)
	parallel.For(nVars, 2048, func(start, end int) {
		var t1, t2 ff.Fr
		for i := start; i < end; i++ {
			t1.Mul(&beta, &u[i])
			t2.Mul(&alpha, &v[i])
			t1.Add(&t1, &t2)
			t1.Add(&t1, &w[i])
			if i < nPub {
				ic[i].Mul(&t1, &gammaInv)
			} else {
				kPriv[i-nPub].Mul(&t1, &deltaInv)
			}
		}
	})

	// H query scalars: τ^q·Z(τ)/δ.
	zTau := d.VanishingAt(&tau)
	hScalars := make([]ff.Fr, d.N-1)
	var acc ff.Fr
	acc.Mul(&zTau, &deltaInv)
	for q := range hScalars {
		hScalars[q].Set(&acc)
		acc.Mul(&acc, &tau)
	}

	// One batched fixed-base pass over G1 for everything.
	g1 := curve.G1GeneratorJac()
	g2 := curve.G2GeneratorJac()
	scalars := make([]ff.Fr, 0, 2*nVars+len(kPriv)+nPub+len(hScalars)+3)
	scalars = append(scalars, u...)
	scalars = append(scalars, v...)
	scalars = append(scalars, kPriv...)
	scalars = append(scalars, ic...)
	scalars = append(scalars, hScalars...)
	scalars = append(scalars, alpha, beta, delta)
	pts := curve.BatchToAffineG1(curve.FixedBaseMulG1(g1, scalars))

	pk := &ProvingKey{}
	vk := &VerifyingKey{}
	off := 0
	pk.A = pts[off : off+nVars]
	off += nVars
	pk.B1 = pts[off : off+nVars]
	off += nVars
	pk.K = pts[off : off+len(kPriv)]
	off += len(kPriv)
	vk.IC = pts[off : off+nPub]
	off += nPub
	pk.H = pts[off : off+len(hScalars)]
	off += len(hScalars)
	pk.AlphaG1 = pts[off]
	pk.BetaG1 = pts[off+1]
	pk.DeltaG1 = pts[off+2]

	g2Scalars := make([]ff.Fr, 0, nVars+3)
	g2Scalars = append(g2Scalars, v...)
	g2Scalars = append(g2Scalars, beta, gamma, delta)
	g2Pts := curve.BatchToAffineG2(curve.FixedBaseMulG2(g2, g2Scalars))
	pk.B2 = g2Pts[:nVars]
	pk.BetaG2 = g2Pts[nVars]
	vk.GammaG2 = g2Pts[nVars+1]
	pk.DeltaG2 = g2Pts[nVars+2]

	vk.AlphaG1 = pk.AlphaG1
	vk.BetaG2 = pk.BetaG2
	vk.DeltaG2 = pk.DeltaG2
	return pk, vk, nil
}

// Prove produces a proof for the full assignment z (which must satisfy the
// system). Proof randomness is drawn from rng, giving zero-knowledge.
func Prove(sys *r1cs.System, pk *ProvingKey, z []ff.Fr, rng *mrand.Rand) (*Proof, error) {
	if len(z) != sys.NumVars {
		return nil, fmt.Errorf("groth16: assignment length %d != %d", len(z), sys.NumVars)
	}
	d, err := qap.Domain(sys)
	if err != nil {
		return nil, err
	}
	h, err := qap.HCoefficients(sys, z, d)
	if err != nil {
		return nil, err
	}

	var r, s ff.Fr
	r.SetPseudoRandom(rng)
	s.SetPseudoRandom(rng)

	// A = α + Σ z_i·u_i(τ) + r·δ
	aAcc := curve.MSMG1(pk.A, z)
	aAcc.AddMixed(&pk.AlphaG1)
	var rdelta curve.G1Jac
	rdelta.FromAffine(&pk.DeltaG1)
	rdelta.ScalarMul(&rdelta, &r)
	aAcc.AddAssign(&rdelta)
	proofA := aAcc.ToAffine()

	// B = β + Σ z_i·v_i(τ) + s·δ in G2 (and mirrored in G1 for C).
	bAcc2 := curve.MSMG2(pk.B2, z)
	bAcc2.AddMixed(&pk.BetaG2)
	var sdelta2 curve.G2Jac
	sdelta2.FromAffine(&pk.DeltaG2)
	sdelta2.ScalarMul(&sdelta2, &s)
	bAcc2.AddAssign(&sdelta2)
	proofB := bAcc2.ToAffine()

	bAcc1 := curve.MSMG1(pk.B1, z)
	bAcc1.AddMixed(&pk.BetaG1)
	var sdelta1 curve.G1Jac
	sdelta1.FromAffine(&pk.DeltaG1)
	sdelta1.ScalarMul(&sdelta1, &s)
	bAcc1.AddAssign(&sdelta1)

	// C = Σ_priv z_i·K_i + Σ h_q·H_q + s·A + r·B1 − r·s·δ
	cAcc := curve.MSMG1(pk.K, z[sys.NumPublic:])
	hMSM := curve.MSMG1(pk.H, h[:len(pk.H)])
	arena.PutFrs(h) // qap.HCoefficients sizes h for arena reuse
	cAcc.AddAssign(&hMSM)
	var t curve.G1Jac
	t.FromAffine(&proofA)
	t.ScalarMul(&t, &s)
	cAcc.AddAssign(&t)
	t.Set(&bAcc1)
	t.ScalarMul(&t, &r)
	cAcc.AddAssign(&t)
	var rs ff.Fr
	rs.Mul(&r, &s)
	rs.Neg(&rs)
	t.FromAffine(&pk.DeltaG1)
	t.ScalarMul(&t, &rs)
	cAcc.AddAssign(&t)
	proofC := cAcc.ToAffine()

	return &Proof{A: proofA, B: proofB, C: proofC}, nil
}

// ErrInvalidProof is returned when verification fails.
var ErrInvalidProof = errors.New("groth16: invalid proof")

// Verify checks a proof against the public witness (which must start with
// the constant 1).
func Verify(vk *VerifyingKey, proof *Proof, public []ff.Fr) error {
	if len(public) != len(vk.IC) {
		return fmt.Errorf("groth16: public witness length %d != %d", len(public), len(vk.IC))
	}
	if len(public) == 0 || !public[0].IsOne() {
		return errors.New("groth16: public witness must start with constant 1")
	}
	lJac := curve.MSMG1(vk.IC, public)
	l := lJac.ToAffine()

	var negAlpha curve.G1Affine
	negAlpha.Neg(&vk.AlphaG1)
	var negL curve.G1Affine
	negL.Neg(&l)
	var negC curve.G1Affine
	negC.Neg(&proof.C)

	ok := curve.PairingCheck(
		[]curve.G1Affine{proof.A, negAlpha, negL, negC},
		[]curve.G2Affine{proof.B, vk.BetaG2, vk.GammaG2, vk.DeltaG2},
	)
	if !ok {
		return ErrInvalidProof
	}
	return nil
}
