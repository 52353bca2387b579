package baselines

import (
	"errors"
	"fmt"

	"zkvc/internal/ff"
	"zkvc/internal/matrix"
	"zkvc/internal/mle"
	"zkvc/internal/pcs"
	"zkvc/internal/sumcheck"
	"zkvc/internal/transcript"
)

// This file reproduces the zkCNN-style *interactive* baseline: Thaler's
// matrix-multiplication sumcheck (CCC 2013), the protocol zkCNN builds its
// GKR layers from. The claim Ỹ(ri,rj) = Σ_k X̃(ri,k)·W̃(k,rj) is proved
// with one log₂(n)-round sumcheck; the private W is bound by a PCS
// commitment opened at the end. The prover runs in O(n²) field operations —
// far cheaper than any SNARK prover — but the verifier must stay online
// through every round, verification does real field work per round, and
// the proof (transcript) is larger: exactly the trade-offs of Table I and
// Figure 6.

// ZKCNNProof is the transcript of the interactive matmul protocol (made
// non-interactive here via Fiat–Shamir purely so it can be stored; the
// harness still accounts its cost as online time).
type ZKCNNProof struct {
	Comm    pcs.Commitment
	Sum     *sumcheck.Proof
	WEval   ff.Fr
	Opening *pcs.Opening
}

// SizeBytes estimates the transcript size.
func (p *ZKCNNProof) SizeBytes() int {
	n := 32 + 32
	for _, r := range p.Sum.RoundPolys {
		n += 32 * len(r)
	}
	n += p.Opening.SizeBytes()
	return n
}

const zkcnnLabel = "zkvc.baseline.zkcnn"

// logDim returns ceil(log2(max(n,1))).
func logDim(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// ZKCNNCommit commits to the private matrix W ahead of any number of
// proofs (W is laid out row-major, so the MLE variables are (k-bits,
// j-bits) with k high).
func ZKCNNCommit(w *matrix.Matrix, params pcs.Params) (*pcs.Commitment, *pcs.ProverState, error) {
	padded := padMatrix(w)
	return pcs.Commit(padded, params)
}

// padMatrix lays the matrix out on power-of-two strides so row/column bit
// blocks are independent MLE variables.
func padMatrix(m *matrix.Matrix) []ff.Fr {
	rp := 1 << logDim(m.Rows)
	cp := 1 << logDim(m.Cols)
	out := make([]ff.Fr, rp*cp)
	for i := 0; i < m.Rows; i++ {
		copy(out[i*cp:i*cp+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
	}
	return out
}

// ZKCNNProve runs the prover side of the interactive protocol for
// Y = X·W given a prior commitment to W.
func ZKCNNProve(x, w, y *matrix.Matrix, comm *pcs.Commitment, st *pcs.ProverState, params pcs.Params) (*ZKCNNProof, error) {
	a, n, b := x.Rows, x.Cols, w.Cols
	if w.Rows != n || y.Rows != a || y.Cols != b {
		return nil, fmt.Errorf("baselines: dimension mismatch in zkCNN prove")
	}
	tr := transcript.New(zkcnnLabel)
	tr.Append("comm", comm.Root[:])
	tr.AppendFrom("x", x)
	tr.AppendFrom("y", y)

	ri := tr.ChallengeFrs("ri", logDim(a))
	rj := tr.ChallengeFrs("rj", logDim(b))

	// X̃(ri, ·): fold the row block of X.
	xM := mle.NewDense(padMatrix(x)) // vars: (i high, k low)
	for t := range ri {
		xM.Fix(&ri[t])
	}
	// W̃(·, rj): fold the column block of W via its transpose.
	wT := matrix.New(w.Cols, w.Rows)
	for k := 0; k < w.Rows; k++ {
		for j := 0; j < w.Cols; j++ {
			wT.Set(j, k, *w.At(k, j))
		}
	}
	wM := mle.NewDense(padMatrix(wT)) // vars: (j high, k low)
	for t := range rj {
		wM.Fix(&rj[t])
	}

	var one ff.Fr
	one.SetOne()
	ins, err := sumcheck.NewInstance(logDim(n), []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{xM, wM}},
	})
	if err != nil {
		return nil, err
	}
	sum, rk, finals := sumcheck.Prove(ins, tr)
	wEval := finals[0][1]
	tr.AppendFr("w.eval", &wEval)

	// Open W̃ at (rk, rj).
	point := append(append([]ff.Fr(nil), rk...), rj...)
	opening := st.Open(point, tr)
	return &ZKCNNProof{Comm: *comm, Sum: sum, WEval: wEval, Opening: opening}, nil
}

// ErrZKCNN is returned when the interactive verification fails.
var ErrZKCNN = errors.New("baselines: zkCNN verification failed")

// ZKCNNVerify replays the verifier: it evaluates Ỹ(ri,rj) and X̃(ri,rk)
// itself from the public matrices and checks the sumcheck plus the W
// opening.
func ZKCNNVerify(x, y *matrix.Matrix, proof *ZKCNNProof, params pcs.Params) error {
	a, n := x.Rows, x.Cols
	b := y.Cols
	tr := transcript.New(zkcnnLabel)
	tr.Append("comm", proof.Comm.Root[:])
	tr.AppendFrom("x", x)
	tr.AppendFrom("y", y)

	ri := tr.ChallengeFrs("ri", logDim(a))
	rj := tr.ChallengeFrs("rj", logDim(b))

	yM := mle.NewDense(padMatrix(y))
	claim := yM.Eval(append(append([]ff.Fr(nil), ri...), rj...))

	rk, final, err := sumcheck.Verify(claim, logDim(n), 2, proof.Sum, tr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrZKCNN, err)
	}
	xM := mle.NewDense(padMatrix(x))
	xEval := xM.Eval(append(append([]ff.Fr(nil), ri...), rk...))
	var want ff.Fr
	want.Mul(&xEval, &proof.WEval)
	if !want.Equal(&final) {
		return fmt.Errorf("%w: final product mismatch", ErrZKCNN)
	}
	tr.AppendFr("w.eval", &proof.WEval)
	point := append(append([]ff.Fr(nil), rk...), rj...)
	if err := pcs.VerifyOpen(&proof.Comm, point, &proof.WEval, proof.Opening, params, tr); err != nil {
		return fmt.Errorf("%w: %v", ErrZKCNN, err)
	}
	return nil
}
