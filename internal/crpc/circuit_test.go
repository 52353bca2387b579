package crpc

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/r1cs"
	"zkvc/internal/spartan"
)

// SynthesizeBatchShape builds the batch constraint system from shapes and
// challenges alone: the system the verifier's Circuit stands for.
func SynthesizeBatchShape(shapes [][3]int, z, gamma ff.Fr, opts Options) *r1cs.System {
	return synthesize(zeroStatements(shapes), z, gamma, opts).Sys
}

// checkCircuitEval compares Circuit with the system SynthesizeBatchShape
// builds for the same shapes and challenges: the same counts, and at a
// random (rx, ry, r) the same rA·Ã + rB·B̃ + rC·C̃ as the verifier's
// O(nnz) row binding of that system (spartan.R1CS). ry's eq table is
// split after hiVars variables (clamped to |ry|).
func checkCircuitEval(t *testing.T, rng *mrand.Rand, shapes [][3]int, z, gamma ff.Fr, opts Options, hiVars int) {
	t.Helper()
	c := &Circuit{Shapes: shapes, Z: z, Gamma: gamma, Opts: opts}
	sys := SynthesizeBatchShape(shapes, z, gamma, opts)
	cons, vars, public := c.Size()
	if cons != sys.NumConstraints() || vars != sys.NumVars || public != sys.NumPublic {
		t.Fatalf("%v %v: Size = (%d, %d, %d), synthesized (%d, %d, %d)",
			shapes, opts, cons, vars, public, sys.NumConstraints(), sys.NumVars, sys.NumPublic)
	}
	rx, ry := randomFrs(rng, logDim(cons)), randomFrs(rng, logDim(vars))
	r := [3]ff.Fr(randomFrs(rng, 3))
	ey := mle.NewSplitEq(ry, min(hiVars, len(ry)))
	defer ey.Release()
	got, want := c.EvalMatrices(rx, ey, &r), spartan.R1CS(sys).EvalMatrices(rx, ey, &r)
	if !got.Equal(&want) {
		t.Fatalf("%v %v: closed-form matrix evaluation differs from the synthesized system", shapes, opts)
	}
}

func logDim(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func randomFrs(rng *mrand.Rand, n int) []ff.Fr {
	v := make([]ff.Fr, n)
	for i := range v {
		v[i].SetPseudoRandom(rng)
	}
	return v
}

// The closed-form evaluator agrees with the synthesized system on every
// single statement with a, n, b ∈ {1, 2, 3, 5, 17} (n = 1 is PSQ with no
// prefix wire) and on batches of one to three mixed shapes with γ ≠ 0,
// PSQ on and off.
func TestCircuitMatchesSynthesizedSystem(t *testing.T) {
	rng := mrand.New(mrand.NewSource(52))
	dims := []int{1, 2, 3, 5, 17}
	for _, psq := range []bool{false, true} {
		opts := Options{CRPC: true, PSQ: psq}
		for _, a := range dims {
			for _, n := range dims {
				for _, b := range dims {
					z := randomFrs(rng, 1)[0]
					checkCircuitEval(t, rng, [][3]int{{a, n, b}}, z, ff.Fr{}, opts, rng.Intn(12))
				}
			}
		}
		for range 40 {
			shapes := make([][3]int, 1+rng.Intn(3))
			for m := range shapes {
				shapes[m] = [3]int{dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]}
			}
			zg := randomFrs(rng, 2)
			checkCircuitEval(t, rng, shapes, zg[0], zg[1], opts, rng.Intn(12))
		}
	}
}

// FuzzCRPCMatrixEval compares the closed-form evaluator with the
// synthesized system over one to three statements of up to 17×17×17
// (empty dimensions included), both PSQ settings, fuzzed challenges and
// any split of eq(ry, ·).
//
//	go test -run '^$' -fuzz=FuzzCRPCMatrixEval -fuzztime=20s ./internal/crpc
func FuzzCRPCMatrixEval(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(49), uint8(1), uint8(3), uint8(1), int64(2))
	f.Add(uint8(2), uint8(17), uint8(5), uint8(6), int64(3))
	f.Add(uint8(3), uint8(0), uint8(2), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, a8, n8, b8, bits uint8, seed int64) {
		rng := mrand.New(mrand.NewSource(seed))
		shapes := [][3]int{{int(a8 % 18), int(n8 % 18), int(b8 % 18)}}
		for range int(bits>>1) % 3 {
			shapes = append(shapes, [3]int{rng.Intn(18), rng.Intn(18), rng.Intn(18)})
		}
		zg := randomFrs(rng, 2)
		checkCircuitEval(t, rng, shapes, zg[0], zg[1], Options{CRPC: true, PSQ: bits&1 != 0}, rng.Intn(20))
	})
}
