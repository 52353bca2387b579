package poly

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

func randVec(rng *mrand.Rand, n int) []ff.Fr {
	v := make([]ff.Fr, n)
	for i := range v {
		v[i].SetPseudoRandom(rng)
	}
	return v
}

func TestDomainOmegaOrder(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 1024} {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		var w ff.Fr
		w.Exp(&d.Omega, big.NewInt(int64(d.N)))
		if !w.IsOne() {
			t.Fatalf("omega^N != 1 for N=%d", d.N)
		}
		if d.N > 1 {
			w.Exp(&d.Omega, big.NewInt(int64(d.N/2)))
			if w.IsOne() {
				t.Fatalf("omega not primitive for N=%d", d.N)
			}
		}
	}
}

func TestNTTInverseRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(60))
	for _, n := range []int{1, 2, 4, 32, 256} {
		d, _ := NewDomain(n)
		a := randVec(rng, d.N)
		orig := make([]ff.Fr, d.N)
		copy(orig, a)
		d.NTT(a)
		d.INTT(a)
		for i := range a {
			if !a[i].Equal(&orig[i]) {
				t.Fatalf("NTT roundtrip failed at n=%d i=%d", n, i)
			}
		}
	}
}

func TestNTTMatchesHorner(t *testing.T) {
	rng := mrand.New(mrand.NewSource(61))
	d, _ := NewDomain(16)
	coeffs := randVec(rng, d.N)
	evals := make([]ff.Fr, d.N)
	copy(evals, coeffs)
	d.NTT(evals)
	var x ff.Fr
	x.SetOne()
	for k := 0; k < d.N; k++ {
		want := EvalPoly(coeffs, &x)
		if !evals[k].Equal(&want) {
			t.Fatalf("NTT eval mismatch at k=%d", k)
		}
		x.Mul(&x, &d.Omega)
	}
}

func TestCosetNTTRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(62))
	d, _ := NewDomain(64)
	a := randVec(rng, d.N)
	orig := make([]ff.Fr, d.N)
	copy(orig, a)
	d.CosetNTT(a)
	d.CosetINTT(a)
	for i := range a {
		if !a[i].Equal(&orig[i]) {
			t.Fatal("coset roundtrip failed")
		}
	}
}

func TestCosetDisjointFromDomain(t *testing.T) {
	// Z_H must be nonzero on the coset.
	d, _ := NewDomain(128)
	z := d.VanishingAtCoset()
	if z.IsZero() {
		t.Fatal("coset intersects the domain")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(63))
	a := randVec(rng, 13)
	b := randVec(rng, 7)
	want := MulNaive(a, b)
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length mismatch %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("coefficient %d mismatch", i)
		}
	}
}

func TestLagrangeAt(t *testing.T) {
	rng := mrand.New(mrand.NewSource(64))
	d, _ := NewDomain(8)
	// Interpolate random evaluations and check Σ e_q·L_q(τ) == P(τ).
	evals := randVec(rng, d.N)
	coeffs := make([]ff.Fr, d.N)
	copy(coeffs, evals)
	d.INTT(coeffs)
	var tau ff.Fr
	tau.SetPseudoRandom(rng)
	ls := d.LagrangeAt(&tau)
	var viaLagrange ff.Fr
	for q := range ls {
		var t1 ff.Fr
		t1.Mul(&evals[q], &ls[q])
		viaLagrange.Add(&viaLagrange, &t1)
	}
	direct := EvalPoly(coeffs, &tau)
	if !viaLagrange.Equal(&direct) {
		t.Fatal("Lagrange evaluation mismatch")
	}
	// τ inside the domain → indicator.
	var inside ff.Fr
	inside.Set(&d.Omega)
	inside.Mul(&inside, &d.Omega) // ω²
	ls = d.LagrangeAt(&inside)
	for q := range ls {
		if q == 2 && !ls[q].IsOne() {
			t.Fatal("indicator at q=2 not 1")
		}
		if q != 2 && !ls[q].IsZero() {
			t.Fatal("indicator not 0 off q=2")
		}
	}
}

func TestBatchInverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(65))
	a := randVec(rng, 20)
	a[5].SetZero()
	want := make([]ff.Fr, len(a))
	for i := range a {
		want[i].Inverse(&a[i])
	}
	BatchInverse(a)
	for i := range a {
		if !a[i].Equal(&want[i]) {
			t.Fatalf("batch inverse mismatch at %d", i)
		}
	}
}

func TestDomainTooLarge(t *testing.T) {
	if _, err := NewDomain(1 << 29); err == nil {
		t.Fatal("expected error for domain beyond 2-adicity")
	}
}

func BenchmarkNTT64k(b *testing.B) {
	rng := mrand.New(mrand.NewSource(66))
	d, _ := NewDomain(1 << 16)
	a := randVec(rng, d.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NTT(a)
	}
}

// TestEncodeMatchesPaddedNTT holds Encode to copy + NTT for blowups 2, 4
// and 8 and messages of 2⁰ … 2¹³ entries. Domains from parThreshold up
// take the parallel spread and butterfly paths; the test runs them on one
// worker and at full width.
func TestEncodeMatchesPaddedNTT(t *testing.T) {
	defer parallel.SetDefaultSize(0)
	rng := mrand.New(mrand.NewSource(67))
	for _, workers := range []int{1, 0} {
		parallel.SetDefaultSize(workers)
		for _, blowup := range []int{2, 4, 8} {
			for logM := 0; logM <= 13; logM++ {
				m := 1 << logM
				d, err := Shared(m * blowup)
				if err != nil {
					t.Fatal(err)
				}
				msg := randVec(rng, m)
				want := make([]ff.Fr, d.N)
				copy(want, msg)
				d.NTT(want)
				got := randVec(rng, d.N) // Encode must overwrite every slot
				d.Encode(msg, got)
				for i := range got {
					if !got[i].Equal(&want[i]) {
						t.Fatalf("workers %d, blowup %d, m = %d: slot %d differs", workers, blowup, m, i)
					}
				}
			}
		}
	}
}

// BenchmarkEncode times one rate-1/4 Reed–Solomon row encoding (2¹²
// entries into 2¹⁴) by Encode and by the copy + NTT it replaces.
func BenchmarkEncode(b *testing.B) {
	rng := mrand.New(mrand.NewSource(68))
	d, _ := Shared(1 << 14)
	msg := randVec(rng, 1<<12)
	out := make([]ff.Fr, d.N)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"encode", func() { d.Encode(msg, out) }},
		{"copy+NTT", func() { clear(out); copy(out, msg); d.NTT(out) }},
	} {
		b.Run(fmt.Sprintf("blowup=4/%s", c.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
