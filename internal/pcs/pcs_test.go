package pcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/poly"
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

// newMerkleTree hashes raw leaves one by one and builds the tree, padding
// a non-power-of-two count with the empty leaf hash.
func newMerkleTree(leaves [][]byte) *merkleTree {
	n := 1
	for n < len(leaves) {
		n <<= 1
	}
	layer := arena.Hashes(n)
	for i := range layer {
		var leaf []byte
		if i < len(leaves) {
			leaf = leaves[i]
		}
		layer[i] = hashLeaf(leaf)
	}
	return newMerkleTreeHashed(layer)
}

// leafBytes serializes a column of field elements into a Merkle leaf: the
// little-endian element count, then the elements.
func leafBytes(col [][32]byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(col)))
	for i := range col {
		out = append(out, col[i][:]...)
	}
	return out
}

// commitEveryRow is the reference commitment: it encodes and serializes
// every row, zero or not, and builds the tree from leafBytes columns.
// Its state lists every row as nonzero, so Open and Eval walk them all.
func commitEveryRow(t *testing.T, values []ff.Fr, p Params) *ProverState {
	t.Helper()
	k := 0
	for (1 << k) < len(values) {
		k++
	}
	rows, cols := 1<<(k/2), 1<<(k-k/2)
	padded := make([]ff.Fr, 1<<k)
	copy(padded, values)
	d, err := poly.Shared(cols * p.Blowup)
	if err != nil {
		t.Fatal(err)
	}
	st := &ProverState{params: p, rows: rows, cols: cols, numVars: k}
	for i := 0; i < rows; i++ {
		st.message = append(st.message, padded[i*cols:(i+1)*cols])
		st.codeword = append(st.codeword, make([]ff.Fr, d.N))
		d.Encode(st.message[i], st.codeword[i])
		st.nonzero = append(st.nonzero, i)
	}
	leaves := make([][]byte, d.N)
	for j := range leaves {
		col := make([][32]byte, rows)
		for i := range col {
			col[i] = st.codeword[i][j].Bytes()
		}
		leaves[j] = leafBytes(col)
	}
	st.tree = newMerkleTree(leaves)
	st.comm = Commitment{Root: st.tree.root(), NumVars: k, Rows: rows, Cols: cols}
	return st
}

// TestCommitZeroRowsMatchEveryRow pins that skipping all-zero rows in
// Commit, Open and Eval changes no byte: roots, combined rows, opened
// columns and paths and evaluations equal the every-row reference, Eval
// equals the plain MLE evaluation, and VerifyOpen accepts.
func TestCommitZeroRowsMatchEveryRow(t *testing.T) {
	rng := mrand.New(mrand.NewSource(502))
	p := DefaultParams()
	const k, cols = 10, 32 // 32 × 32
	// zeroRows returns a random 2^k vector with the given rows zeroed.
	zeroRows := func(rows ...int) []ff.Fr {
		v := randVec(rng, 1<<k)
		for _, i := range rows {
			clear(v[i*cols : (i+1)*cols])
		}
		return v
	}
	// only returns a vector whose only nonzero entries are row i's
	// element j, for each (i, j) pair.
	only := func(pairs ...int) []ff.Fr {
		v := make([]ff.Fr, 1<<k)
		for q := 0; q < len(pairs); q += 2 {
			v[pairs[q]*cols+pairs[q+1]].SetPseudoRandom(rng)
		}
		return v
	}
	head := zeroRows(0, 1, 2, 3, 4)
	clear(head[:5*cols+7]) // public slots end inside row 5
	for _, c := range []struct {
		name   string
		values []ff.Fr
	}{
		{"head", head},
		{"tail", randVec(rng, (1<<k)-7*cols-3)}, // padding
		{"middle", zeroRows(9, 10, 11, 20)},
		{"all-zero", make([]ff.Fr, 1<<k)},
		{"no-zero-row", randVec(rng, 1<<k)},
		{"first-elements", only(3, 0, 17, 0)},
		{"last-elements", only(4, cols-1, 31, cols-1)},
		{"first-and-last", only(0, 0, 0, cols-1, 31, cols-1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			comm, st, err := Commit(c.values, p)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Release()
			ref := commitEveryRow(t, c.values, p)
			if *comm != ref.comm {
				t.Fatalf("commitment root %x, every-row reference %x", comm.Root, ref.comm.Root)
			}
			padded := make([]ff.Fr, 1<<k)
			copy(padded, c.values)
			var nonzero []int
			for i := 0; i < st.rows; i++ {
				if slices.ContainsFunc(padded[i*cols:(i+1)*cols], func(x ff.Fr) bool { return !x.IsZero() }) {
					nonzero = append(nonzero, i)
				}
			}
			if !slices.Equal(st.nonzero, nonzero) {
				t.Fatalf("rows %v encoded, want the nonzero rows %v", st.nonzero, nonzero)
			}
			for trial := 0; trial < 2; trial++ {
				point := randVec(rng, k)
				claim, refClaim := st.Eval(point), ref.Eval(point)
				want := mle.NewDense(padded).Eval(point)
				if !claim.Equal(&want) || !refClaim.Equal(&want) {
					t.Fatal("Eval differs from the MLE evaluation")
				}
				open := func(st *ProverState) *Opening {
					tr := transcript.New("pcs-test")
					tr.Append("root", comm.Root[:])
					return st.Open(point, tr)
				}
				op, refOp := open(st), open(ref)
				sameFrs(t, "URand", op.URand, refOp.URand)
				sameFrs(t, "UEq", op.UEq, refOp.UEq)
				if len(op.Columns) != len(refOp.Columns) {
					t.Fatalf("%d columns, reference %d", len(op.Columns), len(refOp.Columns))
				}
				for q, col := range op.Columns {
					refCol := refOp.Columns[q]
					if col.Index != refCol.Index {
						t.Fatalf("column %d: index %d, reference %d", q, col.Index, refCol.Index)
					}
					sameFrs(t, fmt.Sprintf("column %d", col.Index), col.Values, refCol.Values)
					if !slices.Equal(col.Path, refCol.Path) {
						t.Fatalf("column %d: Merkle path differs from the reference", col.Index)
					}
				}
				tr := transcript.New("pcs-test")
				tr.Append("root", comm.Root[:])
				if err := VerifyOpen(comm, point, &claim, op, p, tr); err != nil {
					t.Fatalf("valid opening rejected: %v", err)
				}
			}
		})
	}
}

func sameFrs(t *testing.T, what string, got, want []ff.Fr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("%s: element %d differs from the reference", what, i)
		}
	}
}

// BenchmarkPCSCommit commits a 2^15 vector shaped like matmul_spartan's
// witness (the first 9,409 public slots and everything past 17,664 wires
// zero, so 33 of 128 rows are nonzero) and a fully dense one.
func BenchmarkPCSCommit(b *testing.B) {
	rng := mrand.New(mrand.NewSource(98))
	dense := randVec(rng, 1<<15)
	spartan := make([]ff.Fr, 1<<15)
	copy(spartan[9409:17664], dense[9409:17664])
	p := DefaultParams()
	for _, c := range []struct {
		name   string
		values []ff.Fr
	}{{"spartan", spartan}, {"dense", dense}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, st, err := Commit(c.values, p)
				if err != nil {
					b.Fatal(err)
				}
				st.Release()
			}
		})
	}
}
