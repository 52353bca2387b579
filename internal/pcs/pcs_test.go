package pcs

import (
	"errors"
	"fmt"
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

func TestMerkleTree(t *testing.T) {
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	tree := newMerkleTree(leaves)
	root := tree.root()
	for i, l := range leaves {
		if !verifyPath(root, l, i, tree.path(i)) {
			t.Fatalf("path %d invalid", i)
		}
	}
	if verifyPath(root, []byte("x"), 1, tree.path(1)) {
		t.Fatal("wrong leaf accepted")
	}
	if verifyPath(root, leaves[1], 2, tree.path(1)) {
		t.Fatal("wrong index accepted")
	}
}

func TestCommitOpenVerify(t *testing.T) {
	rng := mrand.New(mrand.NewSource(500))
	p := DefaultParams()
	for _, k := range []int{0, 1, 3, 6, 9} {
		values := randVec(rng, 1<<k)
		comm, st, err := Commit(values, p)
		if err != nil {
			t.Fatal(err)
		}
		point := randVec(rng, k)
		claim := st.Eval(point)

		// The claim must agree with the plain MLE evaluation.
		m := mle.NewDense(values)
		want := m.Eval(point)
		if !claim.Equal(&want) {
			t.Fatalf("k=%d: ProverState.Eval != MLE eval", k)
		}

		trP := transcript.New("pcs-test")
		trP.Append("root", comm.Root[:])
		op := st.Open(point, trP)

		trV := transcript.New("pcs-test")
		trV.Append("root", comm.Root[:])
		if err := VerifyOpen(comm, point, &claim, op, p, trV); err != nil {
			t.Fatalf("k=%d: valid opening rejected: %v", k, err)
		}
	}
}

func TestVerifyRejectsWrongClaim(t *testing.T) {
	rng := mrand.New(mrand.NewSource(501))
	p := DefaultParams()
	values := randVec(rng, 64)
	comm, st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := randVec(rng, 6)
	claim := st.Eval(point)
	trP := transcript.New("pcs-test")
	trP.Append("root", comm.Root[:])
	op := st.Open(point, trP)

	var bad ff.Fr
	bad.Add(&claim, func() *ff.Fr { o := ff.NewFr(1); return &o }())
	trV := transcript.New("pcs-test")
	trV.Append("root", comm.Root[:])
	if err := VerifyOpen(comm, point, &bad, op, p, trV); err == nil {
		t.Fatal("wrong claim accepted")
	}
}

func TestVerifyRejectsTamperedRow(t *testing.T) {
	rng := mrand.New(mrand.NewSource(502))
	p := DefaultParams()
	values := randVec(rng, 256)
	comm, st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := randVec(rng, 8)
	claim := st.Eval(point)
	trP := transcript.New("pcs-test")
	trP.Append("root", comm.Root[:])
	op := st.Open(point, trP)

	// A cheating prover adjusts uEq to support a different claim; the
	// column consistency checks must catch it.
	var delta ff.Fr
	delta.SetUint64(1)
	op.UEq[0].Add(&op.UEq[0], &delta)
	var badClaim ff.Fr
	eqC := mle.EqTable(point[4:])
	var shift ff.Fr
	shift.Mul(&delta, &eqC[0])
	badClaim.Add(&claim, &shift)

	trV := transcript.New("pcs-test")
	trV.Append("root", comm.Root[:])
	if err := VerifyOpen(comm, point, &badClaim, op, p, trV); err == nil {
		t.Fatal("tampered eq-row accepted")
	}
}

func TestVerifyRejectsTamperedColumn(t *testing.T) {
	rng := mrand.New(mrand.NewSource(503))
	p := DefaultParams()
	values := randVec(rng, 256)
	comm, st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := randVec(rng, 8)
	claim := st.Eval(point)
	trP := transcript.New("pcs-test")
	trP.Append("root", comm.Root[:])
	op := st.Open(point, trP)
	op.Columns[0].Values[0].Add(&op.Columns[0].Values[0], func() *ff.Fr { o := ff.NewFr(1); return &o }())

	trV := transcript.New("pcs-test")
	trV.Append("root", comm.Root[:])
	if err := VerifyOpen(comm, point, &claim, op, p, trV); err == nil {
		t.Fatal("tampered column accepted")
	}
}

func TestOpeningSize(t *testing.T) {
	rng := mrand.New(mrand.NewSource(504))
	p := DefaultParams()
	values := randVec(rng, 1024)
	comm, st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := randVec(rng, 10)
	trP := transcript.New("pcs-test")
	trP.Append("root", comm.Root[:])
	op := st.Open(point, trP)
	if op.SizeBytes() <= 0 {
		t.Fatal("non-positive opening size")
	}
}

func TestCommitRejectsBadBlowup(t *testing.T) {
	if _, _, err := Commit(make([]ff.Fr, 4), Params{Blowup: 1, Queries: 4}); err == nil {
		t.Fatal("blowup 1 accepted")
	}
}

// TestVerifyRejectsMalformedLayout feeds VerifyOpen commitments whose
// rows and columns are not the split Commit makes of their variables:
// an error, never a panic in the encoder.
func TestVerifyRejectsMalformedLayout(t *testing.T) {
	rng := mrand.New(mrand.NewSource(503))
	p := DefaultParams()
	comm, st, err := Commit(randVec(rng, 64), p)
	if err != nil {
		t.Fatal(err)
	}
	point := randVec(rng, 6)
	claim := st.Eval(point)
	trP := transcript.New("pcs-test")
	op := st.Open(point, trP)
	for _, layout := range [][2]int{{4, 16}, {8, 6}, {0, 0}} {
		bad := *comm
		bad.Rows, bad.Cols = layout[0], layout[1]
		if err := VerifyOpen(&bad, point, &claim, op, p, transcript.New("pcs-test")); !errors.Is(err, ErrOpening) {
			t.Fatalf("%dx%d layout: %v, want ErrOpening", layout[0], layout[1], err)
		}
	}
}

// BenchmarkPCSRate ablates the Reed–Solomon expansion factor: a lower
// blowup (rate-1/2) commits faster but needs more column queries for the
// same soundness, trading prover time against proof size (DESIGN.md
// ablation 4).
func BenchmarkPCSRate(b *testing.B) {
	rng := mrand.New(mrand.NewSource(99))
	values := randVec(rng, 1<<12)
	point := randVec(rng, 12)
	for _, p := range []Params{{Blowup: 2, Queries: 66}, {Blowup: 4, Queries: 33}} {
		b.Run(fmt.Sprintf("blowup=%d", p.Blowup), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				comm, st, err := Commit(values, p)
				if err != nil {
					b.Fatal(err)
				}
				tr := transcript.New("bench")
				op := st.Open(point, tr)
				bytes = op.SizeBytes()
				claim := st.Eval(point)
				trv := transcript.New("bench")
				if err := VerifyOpen(comm, point, &claim, op, p, trv); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes)/1024, "proof-KB")
		})
	}
}
