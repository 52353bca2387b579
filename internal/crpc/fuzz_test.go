package crpc

import (
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/r1cs"
)

// FuzzSynthesize checks that the prover and the verifier build the same
// circuit. For shapes up to 6×6×6 under every circuit option: honest
// synthesis is satisfied, the shape-only rebuild at the prover's
// challenges has the prover's structure digest, and adding 1 to one Y
// entry of the assignment breaks it. The same holds for a batch of one to
// three statements against SynthesizeBatchShape.
//
//	go test -run '^$' -fuzz=FuzzSynthesize -fuzztime=20s ./internal/crpc
func FuzzSynthesize(f *testing.F) {
	for _, seed := range []struct {
		a, n, b, opts uint8
		values        int64
	}{
		{1, 1, 1, 0, 1}, {2, 3, 4, 1, 2}, {5, 1, 3, 2, 3}, {4, 6, 2, 3, 4},
		{6, 6, 6, 7, 5}, {2, 3, 0, 3, 6}, {0, 3, 2, 1, 7}, {2, 0, 3, 10, 8},
	} {
		f.Add(seed.a, seed.n, seed.b, seed.opts, seed.values)
	}
	f.Fuzz(func(t *testing.T, a8, n8, b8, optBits uint8, values int64) {
		a, n, b := int(a8%7), int(n8%7), int(b8%7)
		opts := Options{CRPC: optBits&1 != 0, PSQ: optBits&2 != 0}
		rng := mrand.New(mrand.NewSource(values))

		syn, err := Synthesize(randomStatement(rng, a, n, b), opts)
		if err != nil {
			t.Fatal(err)
		}
		// The Y entries follow the constant wire and the a·n X entries.
		checkCircuit(t, syn, SynthesizeShape(a, n, b, syn.Z, opts), 1+a*n, a*b*min(n, 1))

		opts.CRPC = true // batching requires the CRPC identity
		shapes := make([][3]int, 1+int(optBits>>2)%3)
		for m := range shapes {
			shapes[m] = [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		}
		bs := randomBatch(rng, shapes)
		bsyn, err := SynthesizeBatch(bs, opts)
		if err != nil {
			t.Fatal(err)
		}
		z, gamma := DeriveBatchChallenges(bs.Stmts, BatchCommit(bs.Stmts))
		xEntries, yEntries := 0, 0
		for _, sh := range shapes {
			xEntries, yEntries = xEntries+sh[0]*sh[1], yEntries+sh[0]*sh[2]
		}
		checkCircuit(t, bsyn, SynthesizeBatchShape(shapes, z, gamma, opts), 1+xEntries, yEntries)
	})
}

// checkCircuit asserts that syn is satisfied, that the verifier's rebuilt
// system has its structure, and that adding 1 to any one of the yEntries
// Y wires starting at yStart breaks satisfaction. With no products
// (n = 0) PSQ leaves Y unconstrained, so callers pass yEntries = 0 there.
func checkCircuit(t *testing.T, syn *Synthesis, rebuilt *r1cs.System, yStart, yEntries int) {
	t.Helper()
	if err := syn.Sys.Satisfied(syn.Assignment); err != nil {
		t.Fatalf("%v: honest synthesis unsatisfied: %v", syn.Opts, err)
	}
	if rebuilt.StructureDigest() != syn.Sys.StructureDigest() {
		t.Fatalf("%v: the shape-only rebuild differs from the prover's circuit", syn.Opts)
	}
	for e := range yEntries {
		bad := append([]ff.Fr(nil), syn.Assignment...)
		var one ff.Fr
		one.SetOne()
		bad[yStart+e].Add(&bad[yStart+e], &one)
		if syn.Sys.Satisfied(bad) == nil {
			t.Fatalf("%v: Y entry %d + 1 still satisfies the circuit", syn.Opts, e)
		}
	}
}
