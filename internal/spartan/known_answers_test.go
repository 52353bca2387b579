package spartan_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// spartanKnownAnswers pins SHA-256 over the wire encoding of seeded
// Spartan proofs: matmul proofs of four shapes under every circuit
// variant, and a whole model report with softmax and GELU gadgets. The
// digests were computed before the sumcheck prover and the matrix
// binding were rewritten: a mismatch means a proof byte moved. Never
// regenerate them to make a change pass.
var spartanKnownAnswers = map[string]string{
	"vanilla 4x8x6":             "0e2dee082c83b69098fc4c4820a7a47c03360cb7dfe2bf14560718c36381a62f",
	"CRPC 4x8x6":                "d058cf6f63c37210cecad1118ffdf071760f533250b6886f46aff39ba1ea5f86",
	"PSQ 4x8x6":                 "53a482b9ce9f40138bec7e752e9b845e89bf6bfe83e6bbf16e9c55a539d56f95",
	"CRPC+PSQ 4x8x6":            "0e51da30a74fe909f766f2b3f9bd84a96aba3db4c4eb70bd8ca5a818c574545d",
	"vanilla 49x64x128":         "c25f4f19f02c6f3e7a6d6a2305bc1fc1106b6c81b8a0229a8f351d0c040a4288",
	"CRPC 49x64x128":            "318ddc1487d94c8064830804a55a5ba7d568358546463b3863f279ae4986d252",
	"PSQ 49x64x128":             "a8eeb1e506b09f5a136220c65321cd82fc8c9f2a675ec4511b2067d5ffadc181",
	"CRPC+PSQ 49x64x128":        "ec082593e8a52d4d3c5fb71d578bb2a68f80b29b68e7bab89c4c00e2728cea89",
	"vanilla 8x8x8":             "9e8cc1011e2e451187a910e7032a7b53a7305646f95c0e5b689f704a6c33d505",
	"CRPC 8x8x8":                "05bad04348dbadcd261ef94367310e841b38bb06998dad2bd8c9aea8bc030e23",
	"PSQ 8x8x8":                 "f4f5b6d4ffd07ae86727ea807689e54c8cf75184bfe898e2fceb9c1a0cb2f909",
	"CRPC+PSQ 8x8x8":            "b607f934507ede4a8627a3c02f91a310e92e044a6bb157e5760846de01a47b66",
	"vanilla 3x5x7":             "34929a3f51a9791724b588360466bccef7a6ac876931fb769ad5f3815e62efcd",
	"CRPC 3x5x7":                "1b5c8a670c0fa00d406f14db3d6f2687a70180eecfa739cdebe082a8f20810b6",
	"PSQ 3x5x7":                 "1df547d65dec59a87135e5a6f468457ac681564a98d3f55bd2208f1a0b3d9666",
	"CRPC+PSQ 3x5x7":            "550a4a55fcbb81e9ecae7115bcb4aa175b7675aaeefd428d7c73b0d226d0a817",
	"TinyConfig softmax report": "c234a76750d6f71db8ab8eab845b2c0fde1f5c8d7079b6bfd973668b62a79cfa",
}

// TestSpartanKnownAnswers proves each pinned statement and compares the
// digest of its canonical encoding, wall-clock timings zeroed.
func TestSpartanKnownAnswers(t *testing.T) {
	variants := []struct {
		name string
		opts zkvc.Options
	}{
		{"vanilla", zkvc.Options{}},
		{"CRPC", zkvc.Options{CRPC: true}},
		{"PSQ", zkvc.Options{PSQ: true}},
		{"CRPC+PSQ", zkvc.Options{CRPC: true, PSQ: true}},
	}
	for _, shape := range [][3]int{{4, 8, 6}, {49, 64, 128}, {8, 8, 8}, {3, 5, 7}} {
		rng := mrand.New(mrand.NewSource(int64(shape[0]*10000 + shape[1]*100 + shape[2])))
		x := zkvc.RandomMatrix(rng, shape[0], shape[1], 128)
		w := zkvc.RandomMatrix(rng, shape[1], shape[2], 128)
		for _, v := range variants {
			name := fmt.Sprintf("%s %dx%dx%d", v.name, shape[0], shape[1], shape[2])
			prover := zkvc.NewMatMulProver(zkvc.Spartan, v.opts)
			prover.Reseed(7)
			proof, err := prover.ProveContext(context.Background(), x, w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			proof.Timings = zkvc.Timings{}
			checkDigest(t, name, wire.EncodeMatMulProof(proof))
		}
	}

	cfg := nn.TinyConfig("known-answers", nn.MixerSoftmax)
	m, err := nn.NewModel(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := zkml.DefaultOptions()
	opts.Seed = 9
	rep, err := zkml.ProveModel(m, m.RandomInput(mrand.New(mrand.NewSource(9))), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Ops is a value slice: zero the timings in place, not in a range copy.
	for i := range rep.Ops {
		op := &rep.Ops[i]
		op.Synthesis, op.Setup, op.Prove, op.Verify = 0, 0, 0, 0
	}
	checkDigest(t, "TinyConfig softmax report", wire.EncodeReport(rep))
}

func checkDigest(t *testing.T, name string, b []byte) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != spartanKnownAnswers[name] {
		t.Errorf("%q: %q, want %q", name, got, spartanKnownAnswers[name])
	}
}
