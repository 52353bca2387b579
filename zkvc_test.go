package zkvc

import (
	"context"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
)

func TestMatMulProveVerifySpartan(t *testing.T) {
	rng := mrand.New(mrand.NewSource(800))
	x := RandomMatrix(rng, 8, 16, 64)
	w := RandomMatrix(rng, 16, 8, 64)
	for _, opts := range []Options{{}, {PSQ: true}, {CRPC: true}, DefaultOptions()} {
		p := NewMatMulProver(Spartan, opts)
		p.Reseed(1)
		proof, err := p.ProveContext(context.Background(), x, w)
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		if err := VerifyMatMul(x, proof); err != nil {
			t.Fatalf("%v: valid proof rejected: %v", opts, err)
		}
		want := MatMul(x, w)
		if !proof.Y.Equal(want) {
			t.Fatal("proof carries wrong output")
		}
	}
}

func TestMatMulProveVerifyGroth16(t *testing.T) {
	rng := mrand.New(mrand.NewSource(801))
	x := RandomMatrix(rng, 4, 8, 64)
	w := RandomMatrix(rng, 8, 4, 64)
	p := NewMatMulProver(Groth16, DefaultOptions())
	p.Reseed(2)
	proof, err := p.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMatMul(x, proof); err != nil {
		t.Fatalf("valid Groth16 proof rejected: %v", err)
	}
	if proof.SizeBytes() != 256 {
		t.Fatalf("Groth16 proof size %d, want 256", proof.SizeBytes())
	}
	if proof.Timings.Setup == 0 || proof.Timings.Prove == 0 {
		t.Fatal("timings not recorded")
	}
}

func TestVerifyRejectsTamperedOutput(t *testing.T) {
	rng := mrand.New(mrand.NewSource(802))
	x := RandomMatrix(rng, 4, 8, 64)
	w := RandomMatrix(rng, 8, 4, 64)
	p := NewMatMulProver(Spartan, DefaultOptions())
	p.Reseed(3)
	proof, err := p.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	var one ff.Fr
	one.SetOne()
	proof.Y.At(0, 0).Add(proof.Y.At(0, 0), &one)
	if err := VerifyMatMul(x, proof); err == nil {
		t.Fatal("tampered Y accepted")
	}
}

func TestVerifyRejectsWrongInput(t *testing.T) {
	rng := mrand.New(mrand.NewSource(803))
	x := RandomMatrix(rng, 4, 8, 64)
	w := RandomMatrix(rng, 8, 4, 64)
	p := NewMatMulProver(Spartan, DefaultOptions())
	p.Reseed(4)
	proof, err := p.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	x2 := x.Clone()
	var one ff.Fr
	one.SetOne()
	x2.At(1, 1).Add(x2.At(1, 1), &one)
	if err := VerifyMatMul(x2, proof); err == nil {
		t.Fatal("proof accepted for a different input")
	}
}

func TestVerifyRejectsTamperedCommitment(t *testing.T) {
	rng := mrand.New(mrand.NewSource(804))
	x := RandomMatrix(rng, 4, 8, 64)
	w := RandomMatrix(rng, 8, 4, 64)
	p := NewMatMulProver(Spartan, DefaultOptions())
	p.Reseed(5)
	proof, err := p.ProveContext(context.Background(), x, w)
	if err != nil {
		t.Fatal(err)
	}
	proof.WCommit[0] ^= 1 // different commitment → different Z → circuit mismatch
	if err := VerifyMatMul(x, proof); err == nil {
		t.Fatal("tampered W commitment accepted")
	}
}

func TestSameCommitment(t *testing.T) {
	rng := mrand.New(mrand.NewSource(805))
	x1 := RandomMatrix(rng, 2, 4, 64)
	x2 := RandomMatrix(rng, 2, 4, 64)
	w := RandomMatrix(rng, 4, 2, 64)
	p := NewMatMulProver(Spartan, DefaultOptions())
	p.Reseed(6)
	pr1, err := p.ProveContext(context.Background(), x1, w)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := p.ProveContext(context.Background(), x2, w)
	if err != nil {
		t.Fatal(err)
	}
	if !SameCommitment(pr1, pr2) {
		t.Fatal("same model should give same commitment")
	}
}

func TestBackendString(t *testing.T) {
	if Groth16.String() != "zkVC-G" || Spartan.String() != "zkVC-S" {
		t.Fatal("backend names drifted from the paper")
	}
}
