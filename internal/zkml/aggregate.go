package zkml

// Aggregate verification: one succinct check per model report. The
// per-op verifier runs one full proof verification per traced operation
// — k pairing-product evaluations for a Groth16 report, k sparse-matrix
// extractions for a Spartan one — so verifier cost scales linearly with
// model depth. VerifyAggregated folds the whole report into batched
// checks instead:
//
//   - Groth16 reports: one random-linear-combination multi-pairing over
//     every op proof (groth16.VerifyBatch) — k+3g Miller loops, against
//     4k, sharing their squarings, and ONE final exponentiation, against
//     k; g is the number of distinct verifying keys (identical
//     transformer blocks share a CRS, so g ≪ k);
//   - Spartan reports: entries grouped by R1CS structure digest share
//     one matrix extraction, and every op's final identity checks fold
//     into one weighted field equation (spartan.VerifyBatch).
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
	"errors"
	"fmt"

	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/pcs"
	"zkvc/internal/spartan"
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

// absorbOp absorbs one op's identity, statement and proof material. The
// weights derived afterwards are a function of everything absorbed here,
// which is what makes the linear combination non-malleable.
func absorbOp(tr *transcript.Transcript, backend Backend, op *OpProof) error {
	tr.AppendUint64("op.seq", uint64(op.Seq))
	tr.Append("op.tag", []byte(op.Tag))
	tr.AppendUint64("op.layer", uint64(int64(op.Layer)))
	tr.AppendUint64("op.kind", uint64(op.Kind))
	for _, d := range op.Dims {
		tr.AppendUint64("op.dim", uint64(d))
	}
	tr.AppendUint64("op.publics", uint64(len(op.Public)))
	tr.AppendFrs("op.public", op.Public)

	switch backend {
	case Groth16:
		if op.G16 == nil || op.G16VK == nil {
			return fmt.Errorf("zkml: op %q has no retained proof", op.Tag)
		}
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
	case Spartan:
		if op.Spartan == nil || op.Sys == nil {
			return fmt.Errorf("zkml: op %q has no retained proof", op.Tag)
		}
		digest := op.Sys.StructureDigest()
		tr.Append("sys.digest", digest[:])
		p := op.Spartan
		tr.Append("sp.comm", p.Comm.Root[:])
		for _, rp := range p.Sum1.RoundPolys {
			tr.AppendFrs("sp.sum1", rp)
		}
		tr.AppendFr("sp.va", &p.VA)
		tr.AppendFr("sp.vb", &p.VB)
		tr.AppendFr("sp.vc", &p.VC)
		for _, rp := range p.Sum2.RoundPolys {
			tr.AppendFrs("sp.sum2", rp)
		}
		tr.AppendFr("sp.priv", &p.PrivEval)
	default:
		return fmt.Errorf("zkml: unknown backend %d", backend)
	}
	return nil
}

// aggregateWeights derives one nonzero combination weight per op from a
// transcript over the whole report.
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
		if err := absorbOp(tr, r.Backend, &r.Ops[i]); err != nil {
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

// VerifyAggregated checks every retained proof in the report with one
// batched verification per backend instead of one full verification per
// op. It accepts exactly the reports VerifyReport accepts (up to the
// ~1/r random-linear-combination error) and rejects any report with a
// corrupted, missing or swapped op proof. params configures the Spartan
// PCS; a zero value uses the defaults.
func (r *Report) VerifyAggregated(params pcs.Params) error {
	if len(r.Ops) == 0 {
		return errors.New("zkml: empty report")
	}
	weights, err := aggregateWeights(r)
	if err != nil {
		return err
	}
	switch r.Backend {
	case Groth16:
		entries := make([]groth16.BatchEntry, len(r.Ops))
		for i := range r.Ops {
			op := &r.Ops[i]
			entries[i] = groth16.BatchEntry{VK: op.G16VK, Proof: op.G16, Public: op.Public}
		}
		if err := groth16.VerifyBatch(entries, weights); err != nil {
			return fmt.Errorf("zkml: aggregate: %w", err)
		}
	case Spartan:
		entries := make([]spartan.BatchEntry, len(r.Ops))
		for i := range r.Ops {
			op := &r.Ops[i]
			entries[i] = spartan.BatchEntry{Sys: op.Sys, Proof: op.Spartan, Public: op.Public}
		}
		if err := spartan.VerifyBatch(entries, weights, pcsOrDefault(params)); err != nil {
			return fmt.Errorf("zkml: aggregate: %w", err)
		}
	default:
		return fmt.Errorf("zkml: unknown backend %d", r.Backend)
	}
	return nil
}
