package zkml

// Aggregate verification: one succinct check per Groth16 model report.
// A per-op verifier runs one pairing-product evaluation per traced
// operation, so its cost scales linearly with model depth. VerifyReport
// instead folds a Groth16 report into one random-linear-combination
// multi-pairing over every op proof (groth16.VerifyBatch) — k+3g Miller
// loops, against 4k, sharing their squarings, and ONE final
// exponentiation, against k; g is the number of distinct verifying keys.
// Per-statement CRPC challenges give every op its own CRS, so g = k and
// the saving is the final exponentiations, not the Miller loops.
//
// Spartan reports verify per op. Each Spartan proof's sumchecks and
// opening are bound to its own Fiat–Shamir transcript, so a batched
// verifier still replays every one of them and saves only two field
// comparisons per op — less than hashing the report into weights costs.
//
// The combination weights are drawn from a Fiat–Shamir transcript over
// the entire report — header, every op's public inputs and every proof
// element — so the batch check is non-interactive and non-malleable: no
// adversary can pick proofs as a function of the weights, and corrupting
// any single op proof (or reordering, relabeling or splicing ops)
// changes the weights and fails the combined check. An aggregate accept
// attests exactly the per-op statement: every retained proof in this
// report, as encoded, verifies.

import (
	"fmt"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/transcript"
)

// aggregateLabel domain-separates the report-aggregation transcript.
const aggregateLabel = "zkvc.aggregate.v1"

// appendG1 absorbs one G1 point (its affine coordinates, or an explicit
// infinity marker) into the aggregation transcript.
func appendG1(tr *transcript.Transcript, label string, p *curve.G1Affine) {
	if p.Infinity {
		tr.Append(label, []byte{0})
		return
	}
	x := p.X.Bytes()
	y := p.Y.Bytes()
	tr.Append(label, append(x[:], y[:]...))
}

// appendG2 absorbs one G2 point.
func appendG2(tr *transcript.Transcript, label string, p *curve.G2Affine) {
	if p.Infinity {
		tr.Append(label, []byte{0})
		return
	}
	var buf []byte
	for _, c := range []*ff.Fp{&p.X.A0, &p.X.A1, &p.Y.A0, &p.Y.A1} {
		b := c.Bytes()
		buf = append(buf, b[:]...)
	}
	tr.Append(label, buf)
}

// absorbOp absorbs one Groth16 op's identity, statement, proof and
// verifying key. The weights derived afterwards are a function of
// everything absorbed here, which is what makes the linear combination
// non-malleable.
func absorbOp(tr *transcript.Transcript, op *OpProof) error {
	if op.G16 == nil || op.G16VK == nil {
		return fmt.Errorf("zkml: op %q has no retained proof", op.Tag)
	}
	tr.AppendUint64("op.seq", uint64(op.Seq))
	tr.Append("op.tag", []byte(op.Tag))
	tr.AppendUint64("op.layer", uint64(int64(op.Layer)))
	tr.AppendUint64("op.kind", uint64(op.Kind))
	for _, d := range op.Dims {
		tr.AppendUint64("op.dim", uint64(d))
	}
	tr.AppendUint64("op.publics", uint64(len(op.Public)))
	tr.AppendFrs("op.public", op.Public)
	appendG1(tr, "g16.a", &op.G16.A)
	appendG2(tr, "g16.b", &op.G16.B)
	appendG1(tr, "g16.c", &op.G16.C)
	appendG1(tr, "vk.alpha", &op.G16VK.AlphaG1)
	appendG2(tr, "vk.beta", &op.G16VK.BetaG2)
	appendG2(tr, "vk.gamma", &op.G16VK.GammaG2)
	appendG2(tr, "vk.delta", &op.G16VK.DeltaG2)
	tr.AppendUint64("vk.ic", uint64(len(op.G16VK.IC)))
	for i := range op.G16VK.IC {
		appendG1(tr, "vk.ic.pt", &op.G16VK.IC[i])
	}
	return nil
}

// aggregateWeights derives one nonzero combination weight per op of a
// Groth16 report from a transcript over the whole report.
func aggregateWeights(r *Report) ([]ff.Fr, error) {
	tr := transcript.New(aggregateLabel)
	tr.Append("model", []byte(r.Model))
	tr.AppendUint64("backend", uint64(r.Backend))
	var bits uint64
	if r.Circuit.CRPC {
		bits |= 1
	}
	if r.Circuit.PSQ {
		bits |= 2
	}
	tr.AppendUint64("circuit", bits)
	tr.AppendUint64("ops", uint64(len(r.Ops)))
	for i := range r.Ops {
		if err := absorbOp(tr, &r.Ops[i]); err != nil {
			return nil, err
		}
	}
	weights := make([]ff.Fr, len(r.Ops))
	for i := range weights {
		for {
			weights[i] = tr.ChallengeFr("z")
			if !weights[i].IsZero() {
				break
			}
		}
	}
	return weights, nil
}

// verifyBatch checks every retained proof in a Groth16 report with one
// batched pairing check instead of one pairing product per op. It
// accepts exactly the reports the per-op check accepts, up to the ~1/r
// random-linear-combination error, and rejects any report with a
// corrupted, missing or swapped op proof.
func verifyBatch(r *Report) error {
	weights, err := aggregateWeights(r)
	if err != nil {
		return err
	}
	entries := make([]groth16.BatchEntry, len(r.Ops))
	for i := range r.Ops {
		op := &r.Ops[i]
		entries[i] = groth16.BatchEntry{VK: op.G16VK, Proof: op.G16, Public: op.Public}
	}
	if err := groth16.VerifyBatch(entries, weights); err != nil {
		return fmt.Errorf("zkml: aggregate: %w", err)
	}
	return nil
}
