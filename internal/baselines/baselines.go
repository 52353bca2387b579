// Package baselines reproduces the comparison schemes of the paper's
// Figures 3 and 6 at the circuit level:
//
//   - vanilla groth16/spartan: the unoptimized matmul circuit from
//     internal/crpc with Options{}.
//   - vCNN-style: the paper's §III-A "second transformation" — one global
//     polynomial-product constraint whose superfluous cross terms must be
//     absorbed by a·b·n dummy product variables, each needing its own
//     defining constraint. For matmul this is slightly *worse* than
//     vanilla, which is exactly the paper's point (Fig 3 shows vCNN ≈
//     groth16).
//   - ZEN-style: vanilla quantized matmul plus per-output requantization
//     range checks (bit decompositions), modeling ZEN's quantized inference
//     pipeline.
//   - zkML (halo2): no Plonkish backend exists here; the harness substitutes
//     the vanilla circuit on the Spartan backend and labels it a stand-in
//     (DESIGN.md substitution #3).
//   - zkCNN-style: Thaler's interactive matmul sumcheck, in zkcnn.go.
package baselines

import (
	"fmt"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/r1cs"
)

// SynthesizeVCNN builds the dummy-term polynomial circuit for Y = X·W.
// Constraint count: a·b·n dummy definitions + a·b output ties + 1
// aggregated polynomial identity.
func SynthesizeVCNN(stmt *crpc.Statement) (*crpc.Synthesis, error) {
	a, n := stmt.X.Rows, stmt.X.Cols
	if stmt.W.Rows != n {
		return nil, fmt.Errorf("baselines: inner dimensions %d != %d", n, stmt.W.Rows)
	}
	b := stmt.W.Cols

	bld := r1cs.NewBuilder()
	xVars := make([]r1cs.Var, a*n)
	for i := range stmt.X.Data {
		xVars[i] = bld.PublicInput(stmt.X.Data[i])
	}
	yVars := make([]r1cs.Var, a*b)
	for i := range stmt.Y.Data {
		yVars[i] = bld.PublicInput(stmt.Y.Data[i])
	}
	wVars := make([]r1cs.Var, n*b)
	for i := range stmt.W.Data {
		wVars[i] = bld.Secret(stmt.W.Data[i])
	}

	z := crpc.DeriveZ(stmt)
	var zPow ff.Fr
	zPow.SetOne()
	// Dummy products d_{ikj} = x_ik·w_kj, one constraint each, woven into
	// an aggregated polynomial identity at the challenge point. The dummy
	// variables are all fresh, so the aggregate is accumulated as a plain
	// term list (repeated AddLC would re-merge the growing sum and turn
	// this loop quadratic).
	aggLHS := make(r1cs.LC, 0, a*b*n)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			dot := make(r1cs.LC, 0, n)
			for k := 0; k < n; k++ {
				d := bld.Mul(r1cs.VarLC(xVars[i*n+k]), r1cs.VarLC(wVars[k*b+j]))
				dot = append(dot, r1cs.Term{Coeff: one(), V: d})
				// aggregate every dummy with a fresh power of Z
				aggLHS = append(aggLHS, r1cs.Term{Coeff: zPow, V: d})
				zPow.Mul(&zPow, &z)
			}
			bld.AssertEqual(dot, r1cs.VarLC(yVars[i*b+j]))
		}
	}
	// One aggregated check tying the dummy polynomial to itself at Z — the
	// paper's observation is that the dummies make this redundant work.
	aggVal := bld.Eval(aggLHS)
	aggVar := bld.Secret(aggVal)
	bld.AssertEqual(aggLHS, r1cs.VarLC(aggVar))

	sys, assignment := bld.Finish()
	return &crpc.Synthesis{
		Sys:        sys,
		Assignment: assignment,
		Public:     bld.PublicWitness(),
		Z:          z,
	}, nil
}

// ZENQuantBits is the requantization width modeled for the ZEN-style
// baseline: wide enough for any accumulator over quantized int8-scale
// inputs at the benchmark dimensions (|y| < 2^23 for n ≤ 512, |x|,|w| ≤ 127).
const ZENQuantBits = 24

// SynthesizeZEN builds the quantization-aware vanilla circuit: the plain
// a·b·n product constraints plus a ZENQuantBits-bit decomposition of every
// output to model ZEN's requantization range checks.
func SynthesizeZEN(stmt *crpc.Statement) (*crpc.Synthesis, error) {
	a, n := stmt.X.Rows, stmt.X.Cols
	if stmt.W.Rows != n {
		return nil, fmt.Errorf("baselines: inner dimensions %d != %d", n, stmt.W.Rows)
	}
	b := stmt.W.Cols

	bld := r1cs.NewBuilder()
	xVars := make([]r1cs.Var, a*n)
	for i := range stmt.X.Data {
		xVars[i] = bld.PublicInput(stmt.X.Data[i])
	}
	yVars := make([]r1cs.Var, a*b)
	for i := range stmt.Y.Data {
		yVars[i] = bld.PublicInput(stmt.Y.Data[i])
	}
	wVars := make([]r1cs.Var, n*b)
	for i := range stmt.W.Data {
		wVars[i] = bld.Secret(stmt.W.Data[i])
	}

	var two ff.Fr
	two.SetUint64(2)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			// Every summed wire is fresh, so the sums are plain term
			// lists, as in SynthesizeVCNN.
			dot := make(r1cs.LC, 0, n)
			for k := 0; k < n; k++ {
				d := bld.Mul(r1cs.VarLC(xVars[i*n+k]), r1cs.VarLC(wVars[k*b+j]))
				dot = append(dot, r1cs.Term{Coeff: one(), V: d})
			}
			bld.AssertEqual(dot, r1cs.VarLC(yVars[i*b+j]))
			// Requantization range check on a shifted accumulator:
			// decompose (y + offset) into ZENQuantBits boolean wires.
			yv := bld.Value(yVars[i*b+j])
			offset := int64(1) << (ZENQuantBits - 1)
			var offFr ff.Fr
			offFr.SetInt64(offset)
			var sv ff.Fr
			sv.Add(&yv, &offFr)
			bits := sv.Big()
			recompose := make(r1cs.LC, 0, ZENQuantBits)
			var coeff ff.Fr
			coeff.SetOne()
			for t := 0; t < ZENQuantBits; t++ {
				var bitVal ff.Fr
				bitVal.SetUint64(uint64(bits.Bit(t)))
				bv := bld.Secret(bitVal)
				bld.AssertBool(r1cs.VarLC(bv))
				recompose = append(recompose, r1cs.Term{Coeff: coeff, V: bv})
				coeff.Mul(&coeff, &two)
			}
			shiftedLC := r1cs.AddLC(r1cs.VarLC(yVars[i*b+j]), r1cs.ConstLC(offFr))
			bld.AssertEqual(recompose, shiftedLC)
		}
	}
	sys, assignment := bld.Finish()
	return &crpc.Synthesis{
		Sys:        sys,
		Assignment: assignment,
		Public:     bld.PublicWitness(),
	}, nil
}

// one returns the field element 1 (term-list building helper).
func one() ff.Fr {
	var v ff.Fr
	v.SetOne()
	return v
}
