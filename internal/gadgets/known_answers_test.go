package gadgets

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"testing"

	"zkvc/internal/nn"
	"zkvc/internal/r1cs"
)

// gadgetKnownAnswers pins SHA-256 over StructureDigest followed by the
// canonical bytes of every assigned wire, for each gadget under the
// default and the scaled-ViT parameters. The digests were computed
// before the linear combination algebra and ToBits were rewritten: a
// mismatch means a constraint, a term order or a witness value moved,
// and with it every Groth16 CRS and Spartan proof over the gadget.
// Never regenerate them to make a change pass.
var gadgetKnownAnswers = map[string]string{
	"ToBits n=1":                "a2c95cb0c7366e3979eaa9d72179de2035ad84ab0ec24d3b0437cd242fffd907",
	"ToBits n=13":               "2613ce2e915a4b6ba5dad479ff4ce4f829f60d0dd85e4d11da54c90784be092b",
	"ToBits n=40":               "5fb6f7d7a9a1c89f4c7bcb9e032cd8109713e686c65e1401d87cf2c33e9f1ffe",
	"ToBits n=41":               "42e4f089de9eef2e0d0739c1fdcc228c61333a4a340d94f834493a5d7fbeadc2",
	"ToBits out of range":       "9f4e20e062392e4d5c7f7c6cc91e8e929e34aafec130063ed684f0119d298851",
	"default IsGE":              "576394cfada6857f4b7a4d1aea62b7e3ab232f10ea4d855f5ca3ff65a0158348",
	"default Max":               "a31e92757df4de19d1f5ab3a271022cc62dbbc887de774dadd8423b8246ecd0f",
	"default DivPow2":           "dded27cf76101b87612aa8d0e91165f0abbeb32c58da766fadb75a2bd5827803",
	"default DivLC":             "8e2ef5abc1c6dd4766c89b9350418b8f5e400a04072fcc2898ab2f76027010ea",
	"default ExpNeg":            "6919ad597dc48585bef33cc3a837822b8ff79950578d792bdc02c564534b2c96",
	"default GELU":              "fe51022f439201ffc37b31d9f4ac4df479f9dece7458a7a6b1ade66e10443087",
	"default Softmax w=1":       "751ff3d72183522f15b10c19a9845b055a683e9a57da76d2c6ba4aa3e8068bcd",
	"default Softmax w=7":       "4d94433868eb7f7c0d7175cd6ed9363a32fb4a0bd2174070b76367ba801b9db4",
	"default Softmax w=17":      "2cc59f449e5bf40634e11bb5ddf0b42ed5ac22a8d46a839a972aeaa3c8bf34fb",
	"default Softmax w=64":      "93317091d399386daaad160c060da217281dd3f3102a08d2847e8c4a8574b1ef",
	"vit/scaled32 IsGE":         "d57cae521e4bd3cb53f0b0a590c033d10fe1619003b3afc793828a614cd2af82",
	"vit/scaled32 Max":          "6528ca856b7a954aa191e1cb1b25bcfde83946be4a97e34dd3f1425f5e6eea5c",
	"vit/scaled32 DivPow2":      "221a2ade7c73471f68e8f3f6719153e94a872f46886c74a6a1adbcfc089348d8",
	"vit/scaled32 DivLC":        "7eb8d75fc10ee157cf8eb22a71f4d00170a804b3d4e2d79c617f2d3b8734f7eb",
	"vit/scaled32 ExpNeg":       "4fea75eeef44b2ced7a3192cd87ae7fb8e7efc3c1f2d64fb3f4761f337c4711a",
	"vit/scaled32 GELU":         "d5d9f3f204824150ad8fd7a078ab495fd0ba398b3277dacfe9527e5950523bf3",
	"vit/scaled32 Softmax w=1":  "53ec53afad256f1d58da39229c17749092fe30ac07bfa31d414336a4cdb9683c",
	"vit/scaled32 Softmax w=7":  "950b1d2f2eb04c5be217cf0f70bf41737c7602388c54a164b5e3be6a938356d7",
	"vit/scaled32 Softmax w=17": "ea568f29d983c90e5f745f7cb65cb523bc4c1f1359cf1fa09156b0406fb4f43f",
	"vit/scaled32 Softmax w=64": "8fbd228f9800607c5248c2c7fb1ec5bcc9a3d34321d37b17caa8e6dc8f614b24",
}

// vitNonlinear is the gadget configuration the model prover derives for
// ViT-CIFAR10 at scale 32 (zkml's nonlinearConfig).
func vitNonlinear() NonlinearConfig {
	c := nn.ViTCIFAR10().Scaled(32)
	return NonlinearConfig{Fixed: c.Fixed, ExpIters: c.SquareIters, ClipT: c.ClipT, RangeBits: 40}
}

// TestGadgetKnownAnswers synthesizes each pinned gadget over seeded
// fixed-point inputs and compares the digest of its system and witness.
func TestGadgetKnownAnswers(t *testing.T) {
	check := func(name string, b *r1cs.Builder) {
		t.Helper()
		sys, z := b.Finish()
		h := sha256.New()
		d := sys.StructureDigest()
		h.Write(d[:])
		for i := range z {
			w := z[i].Bytes()
			h.Write(w[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != gadgetKnownAnswers[name] {
			t.Errorf("%q: %q, want %q", name, got, gadgetKnownAnswers[name])
		}
	}
	secrets := func(b *r1cs.Builder, vs ...int64) []r1cs.LC {
		out := make([]r1cs.LC, len(vs))
		for i, v := range vs {
			out[i] = r1cs.VarLC(b.Secret(fr(v)))
		}
		return out
	}

	for _, n := range []int{1, 13, 40, 41} {
		b := r1cs.NewBuilder()
		x := secrets(b, (int64(1)<<n)-1-int64(n)/3)
		ToBits(b, x[0], n)
		check(fmt.Sprintf("ToBits n=%d", n), b)
	}
	b := r1cs.NewBuilder()
	ToBits(b, secrets(b, 1<<13)[0], 13)
	check("ToBits out of range", b)

	for _, c := range []struct {
		name string
		cfg  NonlinearConfig
	}{{"default", DefaultNonlinear()}, {"vit/scaled32", vitNonlinear()}} {
		cfg := c.cfg
		scale := cfg.Fixed.Scale()
		rng := mrand.New(mrand.NewSource(int64(scale) + int64(cfg.ExpIters)))
		// Fixed-point values in [−12, 4): some fall below the clip
		// threshold T = −8, so ExpNeg and Softmax take both branches.
		val := func() int64 { return rng.Int63n(16*scale) - 12*scale }

		b := r1cs.NewBuilder()
		xs := secrets(b, val(), val(), -3*scale, 5)
		IsGE(b, xs[0], xs[1], cfg.RangeBits)
		IsGE(b, xs[1], xs[0], cfg.RangeBits)
		IsGE(b, xs[2], r1cs.AddLC(xs[3], r1cs.ConstLC(fr(-3*scale-5))), cfg.RangeBits)
		check(c.name+" IsGE", b)

		b = r1cs.NewBuilder()
		Max(b, secrets(b, val(), val(), val(), val(), val()), cfg.RangeBits)
		check(c.name+" Max", b)

		b = r1cs.NewBuilder()
		for _, x := range secrets(b, val(), -val(), 0, -1) {
			DivPow2(b, x, int(cfg.Fixed.FracBits), cfg.RangeBits)
		}
		check(c.name+" DivPow2", b)

		b = r1cs.NewBuilder()
		nd := secrets(b, 100*scale, 7*scale+3, scale, 1)
		DivLC(b, nd[0], nd[1], cfg.RangeBits)
		s := fr(scale)
		DivLC(b, r1cs.ScaleLC(nd[2], &s), r1cs.AddLC(nd[1], nd[3]), cfg.RangeBits)
		check(c.name+" DivLC", b)

		b = r1cs.NewBuilder()
		for _, x := range secrets(b, 0, -scale/2, -2*scale, -9*scale, -rng.Int63n(10*scale)) {
			ExpNeg(b, x, cfg)
		}
		check(c.name+" ExpNeg", b)

		b = r1cs.NewBuilder()
		for _, x := range secrets(b, val(), val(), -scale/4, 0, 3*scale) {
			GELU(b, x, cfg)
		}
		check(c.name+" GELU", b)

		for _, w := range []int{1, 7, 17, 64} {
			b = r1cs.NewBuilder()
			vs := make([]int64, w)
			for i := range vs {
				vs[i] = val()
			}
			Softmax(b, secrets(b, vs...), cfg)
			check(fmt.Sprintf("%s Softmax w=%d", c.name, w), b)
		}
	}
}
