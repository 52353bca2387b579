package baselines

import (
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/matrix"
	"zkvc/internal/pcs"
)

func randomStatement(rng *mrand.Rand, a, n, b int) *crpc.Statement {
	x := matrix.Random(rng, a, n, 100)
	w := matrix.Random(rng, n, b, 100)
	return crpc.NewStatement(x, w)
}

func TestVCNNSynthesis(t *testing.T) {
	rng := mrand.New(mrand.NewSource(700))
	a, n, b := 3, 4, 5
	stmt := randomStatement(rng, a, n, b)
	syn, err := SynthesizeVCNN(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
		t.Fatal(err)
	}
	// vCNN must cost at least as much as vanilla (a·b·n + a·b + 1).
	if got, want := syn.Sys.NumConstraints(), a*b*n+a*b+1; got != want {
		t.Fatalf("vCNN constraints %d, want %d", got, want)
	}
	vanilla, _ := crpc.Synthesize(stmt, crpc.Options{})
	if syn.Sys.NumConstraints() <= vanilla.Sys.NumConstraints() {
		t.Fatal("vCNN-style should not beat vanilla on matmul (the paper's point)")
	}
}

func TestVCNNRejectsWrongY(t *testing.T) {
	rng := mrand.New(mrand.NewSource(701))
	stmt := randomStatement(rng, 2, 3, 2)
	bad := &crpc.Statement{X: stmt.X, W: stmt.W, Y: stmt.Y.Clone()}
	var one ff.Fr
	one.SetOne()
	bad.Y.At(0, 1).Add(bad.Y.At(0, 1), &one)
	syn, err := SynthesizeVCNN(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Sys.Satisfied(syn.Assignment); err == nil {
		t.Fatal("vCNN circuit satisfied with wrong Y")
	}
}

func TestZENSynthesis(t *testing.T) {
	rng := mrand.New(mrand.NewSource(702))
	a, n, b := 3, 4, 5
	stmt := randomStatement(rng, a, n, b)
	syn, err := SynthesizeZEN(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
		t.Fatal(err)
	}
	// a·b·n products + a·b sums + a·b·(bits bools + 1 recomposition)
	want := a*b*n + a*b + a*b*(ZENQuantBits+1)
	if got := syn.Sys.NumConstraints(); got != want {
		t.Fatalf("ZEN constraints %d, want %d", got, want)
	}
}

func TestZENRejectsOutOfRangeOutput(t *testing.T) {
	// An output beyond the requantization range cannot be decomposed into
	// ZENQuantBits booleans: synthesis of huge inputs must fail the range
	// check even for an "honest" matmul.
	rng := mrand.New(mrand.NewSource(703))
	x := matrix.Random(rng, 2, 2, 1)
	w := matrix.Random(rng, 2, 2, 1)
	stmt := crpc.NewStatement(x, w)
	// Force one huge entry.
	var big ff.Fr
	big.SetUint64(1 << 40)
	stmt.X.Set(0, 0, big)
	stmt.Y = matrix.Mul(stmt.X, stmt.W)
	syn, err := SynthesizeZEN(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Sys.Satisfied(syn.Assignment); err == nil {
		t.Fatal("out-of-range output passed the ZEN range check")
	}
}

func TestZKCNNRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(704))
	params := pcs.DefaultParams()
	for _, dims := range [][3]int{{2, 4, 2}, {4, 8, 8}, {3, 5, 6}} {
		a, n, b := dims[0], dims[1], dims[2]
		x := matrix.Random(rng, a, n, 50)
		w := matrix.Random(rng, n, b, 50)
		y := matrix.Mul(x, w)
		comm, st, err := ZKCNNCommit(w, params)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := ZKCNNProve(x, w, y, comm, st, params)
		if err != nil {
			t.Fatal(err)
		}
		if err := ZKCNNVerify(x, y, proof, params); err != nil {
			t.Fatalf("%v: valid zkCNN proof rejected: %v", dims, err)
		}
	}
}

func TestZKCNNRejectsWrongY(t *testing.T) {
	rng := mrand.New(mrand.NewSource(705))
	params := pcs.DefaultParams()
	x := matrix.Random(rng, 4, 8, 50)
	w := matrix.Random(rng, 8, 4, 50)
	y := matrix.Mul(x, w)
	comm, st, err := ZKCNNCommit(w, params)
	if err != nil {
		t.Fatal(err)
	}
	bad := y.Clone()
	var one ff.Fr
	one.SetOne()
	bad.At(1, 1).Add(bad.At(1, 1), &one)
	// The prover proves honest Y; the verifier checks against bad Y (their
	// transcripts diverge, so the sumcheck claim is wrong).
	proof, err := ZKCNNProve(x, w, y, comm, st, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ZKCNNVerify(x, bad, proof, params); err == nil {
		t.Fatal("zkCNN accepted a wrong output")
	}
}

func TestZKCNNRejectsWrongWCommitment(t *testing.T) {
	rng := mrand.New(mrand.NewSource(706))
	params := pcs.DefaultParams()
	x := matrix.Random(rng, 4, 8, 50)
	w := matrix.Random(rng, 8, 4, 50)
	w2 := matrix.Random(rng, 8, 4, 50) // a different model
	y := matrix.Mul(x, w)
	// Commit to w2 but try to prove with w's products.
	comm, st, err := ZKCNNCommit(w2, params)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := ZKCNNProve(x, w, y, comm, st, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ZKCNNVerify(x, y, proof, params); err == nil {
		t.Fatal("zkCNN accepted a proof against the wrong committed model")
	}
}

// TestZENStructureKnownAnswer pins the ZEN circuit's structure digest,
// computed while its sums were still built with repeated AddLC. Every
// summed wire is fresh, so appending terms must leave the circuit as it
// was.
func TestZENStructureKnownAnswer(t *testing.T) {
	for _, c := range []struct {
		a, n, b int
		want    string
	}{
		{3, 4, 5, "7886061ee8a342030e89e8336c41f281421736bd8eae54a99c280bcdcbfafa10"},
		{2, 1, 3, "6c644d8b779ba2a8487494c5e1ae025a6cd3dc39da71ca49ca68bf2bd4b466bf"},
	} {
		rng := mrand.New(mrand.NewSource(int64(710 + c.n)))
		syn, err := SynthesizeZEN(randomStatement(rng, c.a, c.n, c.b))
		if err != nil {
			t.Fatal(err)
		}
		d := syn.Sys.StructureDigest()
		if got := hex.EncodeToString(d[:]); got != c.want {
			t.Errorf("%dx%dx%d: structure digest %s, want %s", c.a, c.n, c.b, got, c.want)
		}
	}
}
