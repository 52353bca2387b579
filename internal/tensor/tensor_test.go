package tensor

import (
	mrand "math/rand"
	"testing"
	"testing/quick"

	"zkvc/internal/fixed"
)

func fromInts(rows, cols int, vals ...int64) *Mat {
	m := New(rows, cols)
	copy(m.Data, vals)
	return m
}

func TestMatMulRawSmall(t *testing.T) {
	a := fromInts(2, 2, 1, 2, 3, 4)
	b := fromInts(2, 2, 5, 6, 7, 8)
	got := MatMulRaw(a, b)
	want := []int64{19, 22, 43, 50}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("entry %d = %d, want %d", i, got.Data[i], w)
		}
	}
}

func TestMatMulRescales(t *testing.T) {
	c := fixed.Config{FracBits: 4} // scale 16
	a := fromInts(1, 1, 32)        // 2.0
	b := fromInts(1, 1, 24)        // 1.5
	got := MatMul(a, b, c)
	if got.Data[0] != 48 { // 3.0
		t.Fatalf("fixed-point product = %d, want 48", got.Data[0])
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMulRaw(New(2, 3), New(2, 3))
}

func TestAddAndBias(t *testing.T) {
	a := fromInts(2, 2, 1, 2, 3, 4)
	b := fromInts(2, 2, 10, 20, 30, 40)
	sum := Add(a, b)
	if sum.At(1, 1) != 44 {
		t.Fatal("Add wrong")
	}
	biased := AddBias(a, []int64{100, 200})
	if biased.At(0, 0) != 101 || biased.At(1, 1) != 204 {
		t.Fatal("AddBias wrong")
	}
	if a.At(0, 0) != 1 {
		t.Fatal("AddBias mutated input")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	a := Random(rng, 3, 5, 100)
	tt := Transpose(Transpose(a))
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose not an involution")
		}
	}
}

func TestSliceConcatRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	a := Random(rng, 4, 12, 100)
	parts := []*Mat{SliceCols(a, 0, 4), SliceCols(a, 4, 8), SliceCols(a, 8, 12)}
	back := ConcatCols(parts...)
	if back.Rows != a.Rows || back.Cols != a.Cols {
		t.Fatal("shape lost")
	}
	for i := range a.Data {
		if a.Data[i] != back.Data[i] {
			t.Fatal("slice/concat round trip lost data")
		}
	}
}

func TestSliceColsBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SliceCols(New(2, 4), 3, 3)
}

func TestMeanRows(t *testing.T) {
	a := fromInts(2, 2, 1, 10, 3, 20)
	m := MeanRows(a)
	if m.Rows != 1 || m.At(0, 0) != 2 || m.At(0, 1) != 15 {
		t.Fatalf("MeanRows = %+v", m)
	}
}

func TestNormRowsBoundsMagnitude(t *testing.T) {
	c := fixed.Default()
	rng := mrand.New(mrand.NewSource(3))
	a := Random(rng, 4, 16, 1_000_000)
	n := NormRows(a, c)
	for i := 0; i < n.Rows; i++ {
		var mav int64
		for _, v := range n.Row(i) {
			if v < 0 {
				v = -v
			}
			mav += v
		}
		mav /= int64(n.Cols)
		// Mean |x| must land near the fixed-point unit.
		if mav < c.Scale()/2 || mav > 2*c.Scale() {
			t.Fatalf("row %d mean abs %d not near scale %d", i, mav, c.Scale())
		}
	}
	// Zero rows must pass through without dividing by zero.
	z := NormRows(New(2, 4), c)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("zero row not preserved")
		}
	}
}

func TestMeanPoolTokensWindow(t *testing.T) {
	a := fromInts(4, 1, 0, 10, 20, 30)
	p := MeanPoolTokens(a, 1)
	// Row 0 pools {0,10} → 5; row 1 pools {0,10,20} → 10.
	if p.At(0, 0) != 5 || p.At(1, 0) != 10 {
		t.Fatalf("pooling wrong: %+v", p.Data)
	}
}

func TestDownsampleTokens(t *testing.T) {
	a := fromInts(4, 1, 0, 10, 20, 30)
	d := DownsampleTokens(a)
	if d.Rows != 2 || d.At(0, 0) != 5 || d.At(1, 0) != 25 {
		t.Fatalf("downsample wrong: %+v", d)
	}
	odd := DownsampleTokens(fromInts(3, 1, 2, 4, 6))
	if odd.Rows != 2 || odd.At(1, 0) != 6 {
		t.Fatalf("odd downsample wrong: %+v", odd)
	}
}

func TestSoftmaxRowsProbabilities(t *testing.T) {
	c := fixed.Default()
	rng := mrand.New(mrand.NewSource(4))
	a := Random(rng, 3, 8, 2*c.Scale())
	p := SoftmaxRows(a, c, -8*c.Scale(), 5)
	for i := 0; i < p.Rows; i++ {
		var sum int64
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			sum += v
		}
		// Fixed-point probabilities sum to ~scale (floor rounding loses
		// at most 1 ulp per entry).
		if sum < c.Scale()-int64(p.Cols) || sum > c.Scale() {
			t.Fatalf("row %d sums to %d, want ≈%d", i, sum, c.Scale())
		}
	}
}

func TestScaleFloor(t *testing.T) {
	a := fromInts(1, 3, 7, -7, 8)
	s := Scale(a, 1, 2)
	if s.Data[0] != 3 || s.Data[1] != -4 || s.Data[2] != 4 {
		t.Fatalf("floor scaling wrong: %+v", s.Data)
	}
}

func TestArgmaxRow(t *testing.T) {
	a := fromInts(2, 3, 1, 9, 2, 5, 4, 3)
	if a.ArgmaxRow(0) != 1 || a.ArgmaxRow(1) != 0 {
		t.Fatal("argmax wrong")
	}
}

// TestQuickMatMulRawDistributes property: A·(B+C) = A·B + A·C over int64
// (exact integer arithmetic, no rescale).
func TestQuickMatMulRawDistributes(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		a := Random(rng, 3, 4, 1000)
		b := Random(rng, 4, 2, 1000)
		c := Random(rng, 4, 2, 1000)
		left := MatMulRaw(a, Add(b, c))
		right := Add(MatMulRaw(a, b), MatMulRaw(a, c))
		for i := range left.Data {
			if left.Data[i] != right.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransposeProduct property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		a := Random(rng, 2, 5, 500)
		b := Random(rng, 5, 3, 500)
		left := Transpose(MatMulRaw(a, b))
		right := MatMulRaw(Transpose(b), Transpose(a))
		for i := range left.Data {
			if left.Data[i] != right.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
