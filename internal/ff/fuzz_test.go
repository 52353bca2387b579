package ff

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzFrSetBytesRoundTrip: SetBytes must accept arbitrary byte strings
// without panicking, reduce them mod r, and reach a fixed point — the
// canonical 32-byte encoding re-parses to the same element, and an input
// that is already canonical survives the round trip bit-for-bit.
func FuzzFrSetBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	rMinusOne := new(big.Int).Sub(RModulus(), big.NewInt(1))
	var canon [32]byte
	rMinusOne.FillBytes(canon[:])
	f.Add(canon[:])
	var modBytes [32]byte
	RModulus().FillBytes(modBytes[:])
	f.Add(modBytes[:])
	// The base-field boundary, for the SetBytesCanonical differential.
	PModulus().FillBytes(modBytes[:])
	f.Add(modBytes[:])
	new(big.Int).Sub(PModulus(), big.NewInt(1)).FillBytes(modBytes[:])
	f.Add(modBytes[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 128 {
			b = b[:128]
		}
		var z Fr
		z.SetBytes(b)

		c := z.Bytes()
		var z2 Fr
		z2.SetBytes(c[:])
		if !z.Equal(&z2) {
			t.Fatalf("canonical re-parse changed the element: %v != %v", z.String(), z2.String())
		}
		c2 := z2.Bytes()
		if c != c2 {
			t.Fatalf("Bytes is not a fixed point after one reduction")
		}

		// The canonical encoding must be reduced, and must agree with the
		// reference big.Int reduction of the input.
		want := new(big.Int).SetBytes(b)
		want.Mod(want, RModulus())
		if got := new(big.Int).SetBytes(c[:]); got.Cmp(want) != 0 {
			t.Fatalf("SetBytes(%x) = %v, want %v", b, got, want)
		}

		// A 32-byte input that is already canonical round-trips exactly.
		if len(b) == 32 && new(big.Int).SetBytes(b).Cmp(RModulus()) < 0 && !bytes.Equal(c[:], b) {
			t.Fatalf("canonical input %x re-encoded as %x", b, c)
		}

		// SetBytesCanonical — the strict decoder's limb compare — against
		// the big.Int rule it replaced: accept exactly the 32-byte strings
		// below the modulus, as the element SetBytes gives; else zero.
		v := new(big.Int).SetBytes(b)
		var sr Fr
		if ok, want := sr.SetBytesCanonical(b), len(b) == 32 && v.Cmp(RModulus()) < 0; ok != want {
			t.Fatalf("Fr.SetBytesCanonical(%x) = %v, big.Int says %v", b, ok, want)
		} else if ok && !sr.Equal(&z) || !ok && !sr.IsZero() {
			t.Fatalf("Fr.SetBytesCanonical(%x) left %v", b, sr.String())
		}
		var sp, zp Fp
		zp.SetBytes(b)
		if ok, want := sp.SetBytesCanonical(b), len(b) == 32 && v.Cmp(PModulus()) < 0; ok != want {
			t.Fatalf("Fp.SetBytesCanonical(%x) = %v, big.Int says %v", b, ok, want)
		} else if ok && !sp.Equal(&zp) || !ok && !sp.IsZero() {
			t.Fatalf("Fp.SetBytesCanonical(%x) left %v", b, sp.String())
		}
	})
}
