package matrix

import (
	"bytes"
	"encoding/binary"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"zkvc/internal/ff"
)

func fromInts(rows, cols int, vals ...int64) *Matrix {
	return FromInt64(rows, cols, vals)
}

func TestMulSmall(t *testing.T) {
	// [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
	a := fromInts(2, 2, 1, 2, 3, 4)
	b := fromInts(2, 2, 5, 6, 7, 8)
	want := fromInts(2, 2, 19, 22, 43, 50)
	if got := Mul(a, b); !got.Equal(want) {
		t.Fatalf("Mul wrong: %+v", got)
	}
}

func TestMulWithNegatives(t *testing.T) {
	a := fromInts(1, 2, -3, 4)
	b := fromInts(2, 1, 5, -6)
	// −15 − 24 = −39
	want := fromInts(1, 1, -39)
	if got := Mul(a, b); !got.Equal(want) {
		t.Fatal("negative entries mishandled")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Mul(New(2, 3), New(4, 2))
}

func TestFromInt64LengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad length")
		}
	}()
	FromInt64(2, 2, []int64{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := fromInts(1, 2, 1, 2)
	c := m.Clone()
	c.At(0, 0).SetInt64(99)
	var one ff.Fr
	one.SetInt64(1)
	if !m.At(0, 0).Equal(&one) {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	a := fromInts(1, 2, 1, 2)
	if a.Equal(fromInts(2, 1, 1, 2)) {
		t.Error("shape ignored")
	}
	if a.Equal(fromInts(1, 2, 1, 3)) {
		t.Error("content ignored")
	}
	if !a.Equal(fromInts(1, 2, 1, 2)) {
		t.Error("equal matrices unequal")
	}
}

// encode returns m's canonical encoding.
func encode(m *Matrix) []byte {
	var b bytes.Buffer
	m.WriteCanonical(&b)
	return b.Bytes()
}

func TestBytesCanonical(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	a := Random(rng, 3, 4, 100)
	if !bytes.Equal(encode(a), encode(a.Clone())) {
		t.Fatal("serialization not deterministic")
	}
	b := a.Clone()
	b.At(2, 3).SetInt64(12345)
	if bytes.Equal(encode(a), encode(b)) {
		t.Fatal("serialization ignores content")
	}
	// Dims are framed: a 1x4 and 4x1 with equal data must differ.
	c := fromInts(1, 4, 1, 2, 3, 4)
	d := fromInts(4, 1, 1, 2, 3, 4)
	if bytes.Equal(encode(c), encode(d)) {
		t.Fatal("serialization ignores shape")
	}
	// The layout every Fiat–Shamir challenge hashes, across the
	// streaming buffer's 64-entry boundary: little-endian dims, then
	// the entries' canonical bytes.
	e := Random(rng, 9, 17, 1000)
	want := binary.LittleEndian.AppendUint64(nil, 9)
	want = binary.LittleEndian.AppendUint64(want, 17)
	for i := range e.Data {
		v := e.Data[i].Bytes()
		want = append(want, v[:]...)
	}
	if got := encode(e); !bytes.Equal(got, want) || len(got) != e.EncodedLen() {
		t.Fatal("canonical encoding changed layout")
	}
}

func TestRandomBounds(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	m := Random(rng, 8, 8, 5)
	for i := range m.Data {
		v := m.Data[i]
		// v must be in {-5..5}: either small positive or r − small.
		var x ff.Fr
		ok := false
		for k := int64(-5); k <= 5; k++ {
			x.SetInt64(k)
			if x.Equal(&v) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("entry %d out of bounds", i)
		}
	}
}

// TestQuickMulLinearity property: (A + A)·B = 2·(A·B) via field scaling.
func TestQuickMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		a := Random(rng, 3, 4, 50)
		b := Random(rng, 4, 2, 50)
		ab := Mul(a, b)

		a2 := a.Clone()
		for i := range a2.Data {
			a2.Data[i].Add(&a2.Data[i], &a.Data[i])
		}
		twice := Mul(a2, b)
		for i := range ab.Data {
			var want ff.Fr
			want.Add(&ab.Data[i], &ab.Data[i])
			if !twice.Data[i].Equal(&want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMulAssociativity property: (A·B)·C = A·(B·C).
func TestQuickMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		a := Random(rng, 2, 3, 30)
		b := Random(rng, 3, 4, 30)
		c := Random(rng, 4, 2, 30)
		return Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// mulField is the field-only i-k-j product, the oracle for Mul's integer
// path.
func mulField(m, o *Matrix) *Matrix {
	out := New(m.Rows, o.Cols)
	var t ff.Fr
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			for j := 0; j < o.Cols; j++ {
				t.Mul(m.At(i, k), o.At(k, j))
				out.At(i, j).Add(out.At(i, j), &t)
			}
		}
	}
	return out
}

// mulBounds are the magnitude bounds FuzzMulSmallInts draws entries at
// and just past: int8/int16 quantization, 2^20, the 2^31 and 2^62 edges
// of n·max|x|·max|w| < 2^63, and the 63-bit edge of a single entry.
var mulBounds = []int64{256, 1 << 15, 1 << 20, 1 << 31, 1<<31 + 1, 1 << 62, 1<<63 - 1}

// FuzzMulSmallInts checks Mul against the field-only oracle on entries
// that are 0, ±1, ±256, at and just past a magnitude bound, r − 1, small
// random or random full-width, over shapes up to inner dimension 64. It
// also checks that the integer path is taken exactly when every entry is
// a signed integer below 2^63 in magnitude and n·max|x|·max|w| < 2^63,
// both worked out in math/big.
func FuzzMulSmallInts(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{2, 63, 7, 2, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{7, 40, 3, 0, 12, 0x13, 0x05, 0x0d, 0x0e, 0x1c})
	f.Add([]byte{3, 5, 4, 6, 3, 0x04, 0x0c, 0x0f, 0x05})
	// n·max|x|·max|w| exactly 2^63: 1×2 times 2×1, all entries 2^31.
	f.Add([]byte{0, 1, 0, 3, 0, 3, 3, 3, 3})
	// Below 2^63: 2^62 times 1, and (2^63 − 1) times 1 and −1.
	f.Add([]byte{0, 0, 0, 5, 0, 3, 1})
	f.Add([]byte{0, 0, 1, 6, 0, 3, 1, 9})
	one := big.NewInt(1)
	limit := new(big.Int).Lsh(one, 63)
	r := ff.RModulus()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rows, n, cols := 1+next()%8, 1+next()%64, 1+next()%8
		bound := mulBounds[next()%len(mulBounds)]
		rng := mrand.New(mrand.NewSource(int64(next())))
		entry := func() ff.Fr {
			k := next()
			v := new(big.Int)
			switch k & 7 {
			case 1:
				v.SetInt64(1)
			case 2:
				v.SetInt64(256)
			case 3:
				v.SetInt64(bound)
			case 4:
				v.Add(v.SetInt64(bound), one)
			case 5:
				v.Sub(r, one)
			case 6:
				v.SetInt64(rng.Int63n(bound) + 1)
			case 7:
				v.Rand(rng, r)
			}
			if k&8 != 0 {
				v.Neg(v)
			}
			var x ff.Fr
			x.SetBig(v)
			return x
		}
		// fill also returns the largest entry magnitude under the
		// balanced representation, and whether every magnitude is below
		// 2^63.
		fill := func(nr, nc int) (*Matrix, *big.Int, bool) {
			m := New(nr, nc)
			maxMag, small := new(big.Int), true
			for i := range m.Data {
				m.Data[i] = entry()
				v := m.Data[i].Big()
				if v.Cmp(new(big.Int).Rsh(r, 1)) > 0 {
					v.Sub(r, v)
				}
				small = small && v.Cmp(limit) < 0
				if v.Cmp(maxMag) > 0 {
					maxMag = v
				}
			}
			return m, maxMag, small
		}
		x, xMax, xSmall := fill(rows, n)
		w, wMax, wSmall := fill(n, cols)

		if !Mul(x, w).Equal(mulField(x, w)) {
			t.Fatalf("%dx%dx%d at bound %d: Mul disagrees with the field product", rows, n, cols, bound)
		}
		prod := new(big.Int).Mul(xMax, wMax)
		prod.Mul(prod, big.NewInt(int64(n)))
		want := xSmall && wSmall && prod.Cmp(limit) < 0
		if _, _, ok := intOperands(x, w); ok != want {
			t.Fatalf("%dx%dx%d: integer path %v, want %v (n·max|x|·max|w| = %v)", rows, n, cols, ok, want, prod)
		}
	})
}

// BenchmarkMatMul times the paper's 49×64×128 product on int8-range
// quantized entries (the integer path) and on full-width field entries
// (the field loop).
func BenchmarkMatMul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(3))
	full := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i].SetPseudoRandom(rng)
		}
		return m
	}
	for _, c := range []struct {
		name string
		x, w *Matrix
	}{
		{"small", Random(rng, 49, 64, 128), Random(rng, 64, 128, 128)},
		{"full", full(49, 64), full(64, 128)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Mul(c.x, c.w)
			}
		})
	}
}
