package groth16

// Batch verification: many (vk, proof, public) triples checked with one
// random-linear-combination multi-pairing. Raising each proof's Groth16
// identity e(A,B) = e(α,β)·e(L,γ)·e(C,δ) to an independent random power
// z_i and multiplying gives
//
//	Π_i e(z_i·A_i, B_i)
//	  · Π_g e(−(Σ_{i∈g} z_i)·α_g, β_g)
//	  · Π_g e(−Σ_{i∈g} z_i·L_i, γ_g)
//	  · Π_g e(−Σ_{i∈g} z_i·C_i, δ_g)  =  1
//
// where g ranges over the distinct verifying keys. One PairingCheck
// evaluates the whole product: k + 3g Miller loops and a single final
// exponentiation, against 4k Miller loops and k final exponentiations
// for per-proof verification. A model report's CRPC challenges are drawn
// per statement, so every op has its own CRS and g = k (a
// BERTGLUE().Scaled(16) report: 58 ops, 58 keys, 232 loops either way).
// The saving is therefore the final exponentiations, k → 1, each costing
// more than a Miller loop; the loops of one check still share their
// squarings.
//
// Soundness is the standard small-exponent batching argument: for any
// proof whose identity fails, the combined product equals 1 only if the
// weights satisfy one specific linear relation, which happens with
// probability 1/r over their choice. The caller must therefore sample
// the weights AFTER all proofs, keys and public inputs are fixed —
// internal/zkml draws them from a Fiat–Shamir transcript over the whole
// report (see zkml.VerifyReport).

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// BatchEntry is one (verifying key, proof, public witness) triple of a
// batch verification.
type BatchEntry struct {
	VK     *VerifyingKey
	Proof  *Proof
	Public []ff.Fr
}

// vkDigest fingerprints a verifying key so entries proven under the same
// CRS share one (α,β), (·,γ), (·,δ) pairing slot each. Keys decoded from
// the wire are distinct pointers even when equal, so grouping must be by
// value.
func vkDigest(vk *VerifyingKey) [32]byte {
	h := sha256.New()
	writeG1 := func(p *curve.G1Affine) {
		if p.Infinity {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		x := p.X.Bytes()
		y := p.Y.Bytes()
		h.Write(x[:])
		h.Write(y[:])
	}
	writeG2 := func(p *curve.G2Affine) {
		if p.Infinity {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		for _, c := range []*ff.Fp{&p.X.A0, &p.X.A1, &p.Y.A0, &p.Y.A1} {
			b := c.Bytes()
			h.Write(b[:])
		}
	}
	writeG1(&vk.AlphaG1)
	writeG2(&vk.BetaG2)
	writeG2(&vk.GammaG2)
	writeG2(&vk.DeltaG2)
	for i := range vk.IC {
		writeG1(&vk.IC[i])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// batchGroup accumulates the per-key sums of one verifying-key group.
type batchGroup struct {
	vk   *VerifyingKey
	sumZ ff.Fr       // Σ z_i
	sumL curve.G1Jac // Σ z_i·L_i, L_i = MSM(IC, public_i)
	sumC curve.G1Jac // Σ z_i·C_i
}

// batchTerm is one entry's share of the product, computed on its own so
// entries can be prepared in parallel and folded in entry order.
type batchTerm struct {
	digest [32]byte       // vkDigest of the entry's key
	l, c   curve.G1Jac    // z_i·L_i, z_i·C_i
	a      curve.G1Affine // z_i·A_i
}

// VerifyBatch checks every entry's Groth16 identity under one
// random-linear-combination multi-pairing with the caller's weights
// (one nonzero scalar per entry, sampled after all entries are fixed).
// A nil error means every proof in the batch verifies, except with
// probability ~1/r over the weights; any single invalid proof fails the
// whole batch.
func VerifyBatch(entries []BatchEntry, weights []ff.Fr) error {
	if len(entries) == 0 {
		return errors.New("groth16: empty batch")
	}
	if len(weights) != len(entries) {
		return fmt.Errorf("groth16: %d weights for %d entries", len(weights), len(entries))
	}
	for i := range entries {
		ent := &entries[i]
		if ent.VK == nil || ent.Proof == nil {
			return fmt.Errorf("groth16: batch entry %d is missing its key or proof", i)
		}
		if weights[i].IsZero() {
			// A zero weight would silently drop entry i from the check.
			return fmt.Errorf("groth16: batch weight %d is zero", i)
		}
		if len(ent.Public) != len(ent.VK.IC) {
			return fmt.Errorf("groth16: entry %d: public witness length %d != %d", i, len(ent.Public), len(ent.VK.IC))
		}
		if len(ent.Public) == 0 || !ent.Public[0].IsOne() {
			return fmt.Errorf("groth16: entry %d: public witness must start with constant 1", i)
		}
	}

	terms := make([]batchTerm, len(entries))
	parallel.For(len(entries), 1, func(start, end int) {
		for i := start; i < end; i++ {
			ent, t, z := &entries[i], &terms[i], &weights[i]
			t.digest = vkDigest(ent.VK)
			// L_i over the raw public inputs keeps the IC MSM on small
			// scalars; the full-width weight is applied to its one point.
			t.l = curve.MSMG1(ent.VK.IC, ent.Public)
			t.l.ScalarMul(&t.l, z)
			t.c.FromAffine(&ent.Proof.C)
			t.c.ScalarMul(&t.c, z)
			var a curve.G1Jac
			a.FromAffine(&ent.Proof.A)
			a.ScalarMul(&a, z)
			t.a = a.ToAffine()
		}
	})

	groups := make(map[[32]byte]*batchGroup)
	var order [][32]byte
	ps := make([]curve.G1Affine, 0, len(entries)+3*4)
	qs := make([]curve.G2Affine, 0, len(entries)+3*4)
	for i := range terms {
		t := &terms[i]
		g, ok := groups[t.digest]
		if !ok {
			g = &batchGroup{vk: entries[i].VK}
			g.sumL.SetInfinity()
			g.sumC.SetInfinity()
			groups[t.digest] = g
			order = append(order, t.digest)
		}
		g.sumZ.Add(&g.sumZ, &weights[i])
		g.sumL.AddAssign(&t.l)
		g.sumC.AddAssign(&t.c)
		ps = append(ps, t.a)
		qs = append(qs, entries[i].Proof.B)
	}

	for _, d := range order {
		g := groups[d]
		var alpha curve.G1Jac
		alpha.FromAffine(&g.vk.AlphaG1)
		alpha.ScalarMul(&alpha, &g.sumZ)
		var negAlpha, negL, negC curve.G1Affine
		a := alpha.ToAffine()
		negAlpha.Neg(&a)
		l := g.sumL.ToAffine()
		negL.Neg(&l)
		c := g.sumC.ToAffine()
		negC.Neg(&c)
		ps = append(ps, negAlpha, negL, negC)
		qs = append(qs, g.vk.BetaG2, g.vk.GammaG2, g.vk.DeltaG2)
	}

	if !curve.PairingCheck(ps, qs) {
		return ErrInvalidProof
	}
	return nil
}
