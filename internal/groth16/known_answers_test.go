package groth16

import (
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"zkvc/internal/crpc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/r1cs"
)

// setupKnownAnswers pins SHA-256 over every affine coordinate of the
// keys a seeded Setup derives, in field order (keyDigest). The digests
// were computed before fixed-base multiplication was rewritten: a
// mismatch means every CRS of that circuit moved, and with it every
// cached key and proof byte. Never regenerate them to make a change pass.
var setupKnownAnswers = map[string]string{
	"paper circuit":    "e3e28b70810837941eb9bc0d10a64a3b5611c74700a415c4baf718a35afe2d8d",
	"CRPC+PSQ 8x16x64": "876acd96b7dfcc174aec2fd142e7c21b9a51f75c378231dff6222d0052643565",
	"vanilla 2x3x4":    "7de89e29d3dd8a8e9d344fc57f1ff42cf2109b4a4736e72f823b4ea9bd94191a",
	"CRPC+PSQ 8x4x8":   "62d55cd8301bf94ec4ce39a4c26a42f24de67712a4dd547a5a1048729552c9fa",
}

// keyDigest hashes pk then vk field by field: a point at infinity is the
// byte 1, any other point the byte 0 and its coordinates' Bytes().
func keyDigest(pk *ProvingKey, vk *VerifyingKey) string {
	h := sha256.New()
	point := func(inf bool, coords ...*ff.Fp) {
		if inf {
			h.Write([]byte{1})
			return
		}
		h.Write([]byte{0})
		for _, c := range coords {
			b := c.Bytes()
			h.Write(b[:])
		}
	}
	g1 := func(pts ...curve.G1Affine) {
		for i := range pts {
			p := &pts[i]
			point(p.Infinity, &p.X, &p.Y)
		}
	}
	g2 := func(pts ...curve.G2Affine) {
		for i := range pts {
			p := &pts[i]
			point(p.Infinity, &p.X.A0, &p.X.A1, &p.Y.A0, &p.Y.A1)
		}
	}
	g1(pk.AlphaG1, pk.BetaG1, pk.DeltaG1)
	g2(pk.BetaG2, pk.DeltaG2)
	g1(pk.A...)
	g1(pk.B1...)
	g2(pk.B2...)
	g1(pk.K...)
	g1(pk.H...)
	g1(vk.AlphaG1)
	g2(vk.BetaG2, vk.GammaG2, vk.DeltaG2)
	g1(vk.IC...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSetupKnownAnswers runs a seeded Setup on the paper's toy circuit
// and on three matmul circuits (CRPC+PSQ and vanilla) and compares the
// keys' digests with the pinned ones.
func TestSetupKnownAnswers(t *testing.T) {
	paper, _, _ := paperCircuit(3, 4, 5)
	z := fr(918273645)
	cases := []struct {
		name string
		sys  *r1cs.System
	}{
		{"paper circuit", paper},
		{"CRPC+PSQ 8x16x64", crpc.SynthesizeShape(8, 16, 64, z, crpc.Options{CRPC: true, PSQ: true})},
		{"vanilla 2x3x4", crpc.SynthesizeShape(2, 3, 4, z, crpc.Options{})},
		{"CRPC+PSQ 8x4x8", crpc.SynthesizeShape(8, 4, 8, z, crpc.Options{CRPC: true, PSQ: true})},
	}
	for i, c := range cases {
		pk, vk, err := Setup(c.sys, mrand.New(mrand.NewSource(int64(700+i))))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := keyDigest(pk, vk); got != setupKnownAnswers[c.name] {
			t.Errorf("%s: key digest %s, want %s", c.name, got, setupKnownAnswers[c.name])
		}
	}
}
