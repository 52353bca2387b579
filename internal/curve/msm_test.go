package curve

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/parallel"
)

// msmGroup drives one table of MSM cases over either group. Test points
// are multiples logs[j]·G of the generator with known discrete logs, so
// an MSM of any size has a one-multiplication oracle, (Σ s_i·k_i)·G,
// next to the naive Σ ScalarMul that only small sizes can afford.
// Results are affine points boxed as comparable values.
type msmGroup struct {
	name  string
	logs  []ff.Fr                                 // discrete logs of the master points
	pick  func(sel []int)                         // points_i = master[sel[i]], infinity where sel[i] < 0
	msm   func(scalars []ff.Fr, plan msmPlan) any // MSM over the picked points
	naive func(scalars []ff.Fr) any               // Σ ScalarMul over the picked points
	gen   func(k *ff.Fr) any                      // k·G
}

func randLogs(rng *mrand.Rand, n int) []ff.Fr {
	logs := make([]ff.Fr, n)
	for i := range logs {
		logs[i] = randScalar(rng)
	}
	return logs
}

func newG1Group(rng *mrand.Rand, n int) *msmGroup {
	g := &msmGroup{name: "G1", logs: randLogs(rng, n)}
	gen := G1GeneratorJac()
	master := BatchToAffineG1(FixedBaseMulG1(gen, g.logs))
	var pts []G1Affine
	g.pick = func(sel []int) {
		pts = make([]G1Affine, len(sel))
		for i, j := range sel {
			if j < 0 {
				pts[i].Infinity = true
			} else {
				pts[i] = master[j]
			}
		}
	}
	g.msm = func(scalars []ff.Fr, plan msmPlan) any {
		r := msm(pts, scalars, plan, &g1JacPool, func(i int) bool { return pts[i].Infinity })
		return r.ToAffine()
	}
	g.naive = func(scalars []ff.Fr) any {
		var sum G1Jac
		sum.SetInfinity()
		for i := range scalars {
			var p G1Jac
			p.FromAffine(&pts[i])
			p.ScalarMul(&p, &scalars[i])
			sum.AddAssign(&p)
		}
		return sum.ToAffine()
	}
	g.gen = func(k *ff.Fr) any {
		var p G1Jac
		p.ScalarMul(&gen, k)
		return p.ToAffine()
	}
	return g
}

func newG2Group(rng *mrand.Rand, n int) *msmGroup {
	g := &msmGroup{name: "G2", logs: randLogs(rng, n)}
	gen := G2GeneratorJac()
	master := BatchToAffineG2(FixedBaseMulG2(gen, g.logs))
	var pts []G2Affine
	g.pick = func(sel []int) {
		pts = make([]G2Affine, len(sel))
		for i, j := range sel {
			if j < 0 {
				pts[i].Infinity = true
			} else {
				pts[i] = master[j]
			}
		}
	}
	g.msm = func(scalars []ff.Fr, plan msmPlan) any {
		r := msm(pts, scalars, plan, &g2JacPool, func(i int) bool { return pts[i].Infinity })
		return r.ToAffine()
	}
	g.naive = func(scalars []ff.Fr) any {
		var sum G2Jac
		sum.SetInfinity()
		for i := range scalars {
			var p G2Jac
			p.FromAffine(&pts[i])
			p.ScalarMul(&p, &scalars[i])
			sum.AddAssign(&p)
		}
		return sum.ToAffine()
	}
	g.gen = func(k *ff.Fr) any {
		var p G2Jac
		p.ScalarMul(&gen, k)
		return p.ToAffine()
	}
	return g
}

// oracle returns (Σ scalars[i]·logs[sel[i]])·G.
func (g *msmGroup) oracle(sel []int, scalars []ff.Fr) any {
	var acc, t ff.Fr
	for i, j := range sel {
		if j >= 0 {
			t.Mul(&scalars[i], &g.logs[j])
			acc.Add(&acc, &t)
		}
	}
	return g.gen(&acc)
}

func frFromBig(v *big.Int) ff.Fr {
	var s ff.Fr
	s.SetBig(v)
	return s
}

func smallSigned(rng *mrand.Rand, bits uint) ff.Fr {
	var s ff.Fr
	s.SetInt64(rng.Int63n(2<<bits) - 1<<bits)
	return s
}

// crpcShapeScalar is the CRPC witness: a few full-width wires among many
// small signed ones.
func crpcShapeScalar(rng *mrand.Rand, i int) ff.Fr {
	if i%61 == 3 {
		return randScalar(rng)
	}
	return smallSigned(rng, 9)
}

// powerOfTwoScalar yields ±(2^k − 1) and ±2^k, k striding over 0..253 so
// that even short inputs straddle the one-limb class boundary and every
// window edge.
func powerOfTwoScalar(_ *mrand.Rand, i int) ff.Fr {
	v := new(big.Int).Lsh(big.NewInt(1), uint(i/4*61%254))
	if i&1 == 1 {
		v.Sub(v, big.NewInt(1))
	}
	if i&2 == 2 {
		v.Neg(v)
	}
	return frFromBig(v)
}

// edgeScalars are the values where the sign rule and the class split
// change sides: 0, 1, r−1, (r−1)/2, (r+1)/2, (r−3)/2, 2^64−1, 2^64.
var edgeScalars = func() []ff.Fr {
	half := new(big.Int).Rsh(ff.RModulus(), 1) // (r−1)/2
	return []ff.Fr{
		frFromBig(big.NewInt(0)), frFromBig(big.NewInt(1)), frFromBig(big.NewInt(-1)), frFromBig(half),
		frFromBig(new(big.Int).Add(half, big.NewInt(1))), frFromBig(new(big.Int).Sub(half, big.NewInt(1))),
		frFromBig(new(big.Int).SetUint64(1<<64 - 1)), frFromBig(new(big.Int).Lsh(big.NewInt(1), 64)),
	}
}()

// scalarMixes are the scalar populations an MSM must get right: the
// quantized-witness shapes the prover feeds it, and the values at which
// the sign rule, the class split and the windows change behaviour.
var scalarMixes = []struct {
	name string
	gen  func(rng *mrand.Rand, i int) ff.Fr
}{
	{"small-positive", func(rng *mrand.Rand, _ int) ff.Fr { return ff.NewFr(uint64(rng.Intn(257))) }},
	{"small-negative", func(rng *mrand.Rand, _ int) ff.Fr {
		var s ff.Fr
		s.SetInt64(-1 - rng.Int63n(256))
		return s
	}},
	{"mixed-sign", func(rng *mrand.Rand, _ int) ff.Fr { return smallSigned(rng, 23) }},
	{"crpc-shape", crpcShapeScalar},
	{"powers-of-two", powerOfTwoScalar},
	{"edges", func(_ *mrand.Rand, i int) ff.Fr { return edgeScalars[i%len(edgeScalars)] }},
}

// pointMixes rearrange a case's points (sel indexes the master points)
// and, where the mix is about a point meeting itself in one bucket, its
// scalars.
var pointMixes = []struct {
	name  string
	apply func(sel []int, scalars []ff.Fr)
}{
	{"distinct", func([]int, []ff.Fr) {}},
	{"infinity-interleaved", func(sel []int, _ []ff.Fr) {
		for i := 1; i < len(sel); i += 3 {
			sel[i] = -1
		}
	}},
	// P twice with the same scalar: AddMixed's doubling branch.
	{"doubled", func(sel []int, scalars []ff.Fr) {
		for i := 1; i < len(sel); i += 2 {
			sel[i], scalars[i] = sel[i-1], scalars[i-1]
		}
	}},
	// P with s, then P with r−s: AddMixed's cancel-to-infinity branch.
	{"cancelling", func(sel []int, scalars []ff.Fr) {
		for i := 1; i < len(sel); i += 2 {
			sel[i] = sel[i-1]
			scalars[i].Neg(&scalars[i-1])
		}
	}},
}

var msmSizes = []int{0, 1, 15, 16, 17, 255, 256, 257, 4097}

// testMSMMatchesNaive runs every size × scalar mix × point mix against
// the discrete-log oracle, and against naive Σ ScalarMul where that is
// affordable.
func testMSMMatchesNaive(t *testing.T, g *msmGroup) {
	rng := mrand.New(mrand.NewSource(45))
	for _, n := range msmSizes {
		for _, sm := range scalarMixes {
			for _, pm := range pointMixes {
				sel := make([]int, n)
				scalars := make([]ff.Fr, n)
				for i := range sel {
					sel[i] = i
					scalars[i] = sm.gen(rng, i)
				}
				pm.apply(sel, scalars)
				g.pick(sel)
				got := g.msm(scalars, planMSM)
				if want := g.oracle(sel, scalars); got != want {
					t.Errorf("%s n=%d %s/%s: MSM disagrees with (Σ s·k)·G", g.name, n, sm.name, pm.name)
				}
				if n <= 17 {
					if want := g.naive(scalars); got != want {
						t.Errorf("%s n=%d %s/%s: MSM disagrees with Σ ScalarMul", g.name, n, sm.name, pm.name)
					}
				}
			}
		}
	}
	// Uniformly random scalars against the naive sum at a size where
	// several windows and buckets fill.
	const n = 300
	sel := make([]int, n)
	scalars := make([]ff.Fr, n)
	for i := range sel {
		sel[i], scalars[i] = i, randScalar(rng)
	}
	g.pick(sel)
	if g.msm(scalars, planMSM) != g.naive(scalars) {
		t.Errorf("%s: random MSM disagrees with Σ ScalarMul", g.name)
	}
}

func TestMSMG1MatchesNaive(t *testing.T) {
	testMSMMatchesNaive(t, newG1Group(mrand.New(mrand.NewSource(40)), 4097))
}

func TestMSMG2MatchesNaive(t *testing.T) {
	testMSMMatchesNaive(t, newG2Group(mrand.New(mrand.NewSource(46)), 4097))
}

// mixedCase fills a group with n distinct points and returns a scalar
// vector that populates both classes with both signs.
func mixedCase(g *msmGroup, rng *mrand.Rand, n int) []ff.Fr {
	sel := make([]int, n)
	scalars := make([]ff.Fr, n)
	for i := range sel {
		sel[i] = i
		scalars[i] = scalarMixes[i%len(scalarMixes)].gen(rng, i)
	}
	g.pick(sel)
	return scalars
}

// fixedWindow is the plan that uses window width c whatever the input.
func fixedWindow(c uint) msmPlan {
	return func(_, nbits int) (uint, int) { return c, (nbits + int(c)) / int(c) }
}

// TestMSMWindowsAgree pins every window width, in both groups and on
// scalars of every kind, to the planned result. (Wide windows over
// full-width scalars are all bucket sweep; G2 stops at 11 to keep the
// race job short — the digits themselves are group-independent and
// covered for every width by TestBoothDigitRecomposes.)
func TestMSMWindowsAgree(t *testing.T) {
	rng := mrand.New(mrand.NewSource(77))
	for _, tc := range []struct {
		g      *msmGroup
		widths []uint
	}{
		{newG1Group(rng, 300), []uint{1, 2, 3, 4, 5, 7, 8, 11, 13, msmMaxWindow}},
		{newG2Group(rng, 300), []uint{1, 2, 3, 5, 8, 11}},
	} {
		scalars := mixedCase(tc.g, rng, 300)
		want := tc.g.msm(scalars, planMSM)
		for _, c := range tc.widths {
			if got := tc.g.msm(scalars, fixedWindow(c)); got != want {
				t.Errorf("%s: window %d disagrees with the plan", tc.g.name, c)
			}
		}
	}
}

// TestMSMParallelismAndPooling: the same group element at every worker
// budget, pooled and unpooled (ZKVC_NO_POOL=1 is arena.SetEnabled(false)).
func TestMSMParallelismAndPooling(t *testing.T) {
	defer parallel.SetDefaultSize(0)
	defer arena.SetEnabled(arena.Enabled())
	rng := mrand.New(mrand.NewSource(80))
	for _, g := range []*msmGroup{newG1Group(rng, 4097), newG2Group(rng, 1500)} {
		scalars := mixedCase(g, rng, len(g.logs))
		parallel.SetDefaultSize(1)
		want := g.msm(scalars, planMSM)
		for _, pooled := range []bool{true, false} {
			arena.SetEnabled(pooled)
			for _, workers := range []int{1, 2, 4} {
				parallel.SetDefaultSize(workers)
				if got := g.msm(scalars, planMSM); got != want {
					t.Errorf("%s: workers=%d pooled=%v changed the result", g.name, workers, pooled)
				}
			}
		}
	}
}

// TestBoothDigitRecomposes: for every window width the signed digits
// stay in [−2^(c−1), 2^(c−1)] and sum back to the scalar.
func TestBoothDigitRecomposes(t *testing.T) {
	rng := mrand.New(mrand.NewSource(81))
	var cases []ff.Fr
	for i := 0; i < 4*254; i++ {
		cases = append(cases, powerOfTwoScalar(rng, i))
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, randScalar(rng), smallSigned(rng, 23))
	}
	for _, s := range cases {
		mag, _ := s.CanonicalSigned()
		want := new(big.Int)
		for i := 3; i >= 0; i-- {
			want.Lsh(want, 64).Or(want, new(big.Int).SetUint64(mag[i]))
		}
		for c := uint(1); c <= msmMaxWindow; c++ {
			_, windows := fixedWindow(c)(1, bitLen(&mag))
			got := new(big.Int)
			for w := windows - 1; w >= 0; w-- {
				d := boothDigit(&mag, w, c)
				if d < -(1<<(c-1)) || d > 1<<(c-1) {
					t.Fatalf("c=%d w=%d: digit %d out of range", c, w, d)
				}
				got.Lsh(got, c).Add(got, big.NewInt(int64(d)))
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("c=%d: digits of %v recompose to %v", c, want, got)
			}
		}
	}
}

// TestPlanMSM pins the window plan's contract: it covers nbits+1 bits
// with ⌈(nbits+1)/c⌉ windows, its modelled cost never falls as scalars
// get longer, the quantized matmul witness gets at most 3 windows, and
// full-width input is planned no worse than the point-count table the
// plan replaced (unsigned digits: 2^c buckets, a fixed 256-bit sweep).
func TestPlanMSM(t *testing.T) {
	for _, n := range []int{1, 15, 16, 300, 4096, 8832, 17664, 1 << 17, 1 << 20} {
		prev := 0
		for nbits := 1; nbits <= 253; nbits++ {
			c, windows := planMSM(n, nbits)
			if c < 1 || c > msmMaxWindow || windows != (nbits+int(c))/int(c) {
				t.Fatalf("planMSM(%d, %d) = (%d, %d)", n, nbits, c, windows)
			}
			cost := msmCost(n, c, windows)
			if cost < prev {
				t.Fatalf("planMSM(%d, %d): cost %d below %d at %d bits", n, nbits, cost, prev, nbits-1)
			}
			prev = cost
		}
		if _, windows := planMSM(n, 23); n >= 8832 && windows > 3 {
			t.Errorf("planMSM(%d, 23) sweeps %d windows, want ≤ 3", n, windows)
		}
		oldC := uint(14)
		for _, row := range []struct {
			below int
			c     uint
		}{{32, 3}, {256, 5}, {4096, 8}, {1 << 17, 11}} {
			if n < row.below {
				oldC = row.c
				break
			}
		}
		oldCost := (256 + int(oldC) - 1) / int(oldC) * (n + 2<<oldC)
		if c, windows := planMSM(n, 253); msmCost(n, c, windows) > oldCost {
			t.Errorf("planMSM(%d, 253) costs %d, the old table's c=%d cost %d", n, msmCost(n, c, windows), oldC, oldCost)
		}
	}
}

// TestMSMWindowAllocs pins the scratch discipline: a warm MSM rents its
// magnitudes, class indices and one bucket buffer per chunk from the
// arena and allocates nothing per window or per point, so the whole call
// stays under a handful of objects (closures and parallel bookkeeping).
// The small-signed case is the path the prover takes; G2 runs the same
// code over its own bucket pool.
func TestMSMWindowAllocs(t *testing.T) {
	if !arena.Enabled() {
		t.Skip("pooling disabled via ZKVC_NO_POOL")
	}
	// The race runtime makes sync.Pool drop a quarter of what is put
	// back, so the warm call's count is a coin toss there.
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	rng := mrand.New(mrand.NewSource(79))
	const n = 1024
	logs := randLogs(rng, n)
	points := BatchToAffineG1(FixedBaseMulG1(G1GeneratorJac(), logs))
	points2 := BatchToAffineG2(FixedBaseMulG2(G2GeneratorJac(), logs))
	// One worker: parallel.MapReduce's bookkeeping (goroutines, partial
	// results) allocates per worker, so the bound below is a one-worker
	// bound and must not depend on the machine's core count.
	parallel.SetDefaultSize(1)
	defer parallel.SetDefaultSize(0)
	for _, tc := range []struct {
		name string
		gen  func(i int) ff.Fr
		msm  func(scalars []ff.Fr)
	}{
		{"full-width", func(int) ff.Fr { return randScalar(rng) }, func(s []ff.Fr) { MSMG1(points, s) }},
		{"small-signed", func(i int) ff.Fr { return crpcShapeScalar(rng, i) }, func(s []ff.Fr) { MSMG1(points, s) }},
		{"G2/small-signed", func(i int) ff.Fr { return crpcShapeScalar(rng, i) }, func(s []ff.Fr) { MSMG2(points2, s) }},
	} {
		scalars := make([]ff.Fr, n)
		for i := range scalars {
			scalars[i] = tc.gen(i)
		}
		tc.msm(scalars) // warm the pools
		avg := testing.AllocsPerRun(10, func() {
			tc.msm(scalars)
		})
		t.Logf("%s: %.1f allocs/op", tc.name, avg)
		if avg > 8 {
			t.Errorf("%s: warm MSM allocates %.1f objects/op, want ≤ 8", tc.name, avg)
		}
	}
}

// fixedBaseEdgeScalars are the fixed-base edge cases at the width
// fixedBaseWindow: 0, 1, r−1, the sign boundary (r−1)/2 | (r+1)/2, window
// edges 2^{cw}, the largest signed digits ±2^{c−1}·2^{cw}, and all-ones
// runs, whose Booth digits carry through every window.
func fixedBaseEdgeScalars() []*big.Int {
	r, one := ff.RModulus(), big.NewInt(1)
	c := int(fixedBaseWindow)
	top := fixedBaseWindows(fixedBaseWindow) - 1
	pow := func(k int) *big.Int { return new(big.Int).Lsh(one, uint(k)) }
	half := new(big.Int).Rsh(r, 1)
	out := []*big.Int{new(big.Int), one, new(big.Int).Sub(r, one), half, new(big.Int).Add(half, one)}
	for _, w := range []int{1, top / 2, top} {
		out = append(out, pow(c*w))
	}
	for _, w := range []int{0, top / 2, top - 1} {
		v := pow(c - 1 + c*w)
		out = append(out, v, new(big.Int).Sub(r, v))
	}
	for _, k := range []int{c, 2 * c, c*top - 1, c * top} {
		out = append(out, new(big.Int).Sub(pow(k), one))
	}
	return out
}

// fixedBaseScalars returns the edge scalars, then n more of which the
// first half are zero — CRS scalars cluster their zeros, so this is what
// compaction before chunking must balance — and the rest random with
// every seventh small and signed.
func fixedBaseScalars(rng *mrand.Rand, n int) []ff.Fr {
	var s []ff.Fr
	for _, v := range fixedBaseEdgeScalars() {
		s = append(s, frFromBig(v))
	}
	for i := range n {
		switch {
		case i < n/2:
			s = append(s, ff.Fr{})
		case i%7 == 0:
			s = append(s, smallSigned(rng, 9))
		default:
			s = append(s, randScalar(rng))
		}
	}
	return s
}

// TestFixedBaseMulG1 checks FixedBaseMulG1 against ScalarMul for the
// generator (the cached table) and for another base (a table built per
// call), at one worker and at four, and that every output is affine
// (Z = 1) or infinity.
func TestFixedBaseMulG1(t *testing.T) {
	rng := mrand.New(mrand.NewSource(47))
	scalars := fixedBaseScalars(rng, 400)
	other := G1GeneratorJac()
	other.ScalarMul(&other, &scalars[len(scalars)-1])
	defer parallel.SetDefaultSize(0)
	for _, base := range []G1Jac{G1GeneratorJac(), other} {
		want := make([]G1Jac, len(scalars))
		for i := range scalars {
			want[i].ScalarMul(&base, &scalars[i])
		}
		for _, workers := range []int{1, 4} {
			parallel.SetDefaultSize(workers)
			for i, got := range FixedBaseMulG1(base, scalars) {
				if !got.Equal(&want[i]) || !got.IsInfinity() && !got.zIsOne() {
					t.Fatalf("workers=%d: fixed-base mismatch at %d", workers, i)
				}
			}
		}
	}
}

func TestFixedBaseMulG2(t *testing.T) {
	rng := mrand.New(mrand.NewSource(48))
	scalars := fixedBaseScalars(rng, 400)
	other := G2GeneratorJac()
	other.ScalarMul(&other, &scalars[len(scalars)-1])
	defer parallel.SetDefaultSize(0)
	for _, base := range []G2Jac{G2GeneratorJac(), other} {
		want := make([]G2Jac, len(scalars))
		for i := range scalars {
			want[i].ScalarMul(&base, &scalars[i])
		}
		for _, workers := range []int{1, 4} {
			parallel.SetDefaultSize(workers)
			for i, got := range FixedBaseMulG2(base, scalars) {
				if !got.Equal(&want[i]) || !got.IsInfinity() && !got.zIsOne() {
					t.Fatalf("workers=%d: fixed-base mismatch at %d", workers, i)
				}
			}
		}
	}
}

// collisionTerms sets up one window step of fixed-base multiplication in
// which every term has digit d in window w: term 0's accumulator equals
// its addend (must double), terms 1 and 2 meet their addend's negative,
// once through the scalar's sign and once through the accumulator (must
// cancel to infinity), term 3 is an ordinary affine add and term 4 a
// first-digit copy.
func collisionTerms(w, d int) (limbs [][4]uint64, idx []uint32) {
	var m [4]uint64
	m[fixedBaseWindow*w/64] = uint64(d) << (fixedBaseWindow * w % 64)
	return [][4]uint64{m, m, m, m, m}, []uint32{0, 1 | msmNeg, 2, 3, 4}
}

// TestFixedBaseWindowCollision drives the batch-affine window step into
// its exceptional branch (acc = ±addend) next to ordinary terms of the
// same batch. Canonical scalars cannot reach that branch through
// FixedBaseMulG1/G2 (see fixedBaseWindowG1), so this is its only test.
func TestFixedBaseWindowCollision(t *testing.T) {
	const w, d = 3, 5
	limbs, idx := collisionTerms(w, d)
	t.Run("G1", func(t *testing.T) {
		row := g1GeneratorTable()[w]
		addend, other := row[d-1], G1Generator()
		var neg G1Affine
		neg.Neg(&addend)
		out := make([]G1Jac, len(idx))
		for i, a := range []*G1Affine{&addend, &addend, &neg, &other} {
			out[i].FromAffine(a)
		}
		var want [5]G1Jac
		want[0].FromAffine(&addend)
		want[0].Double(&want[0])
		want[1].SetInfinity()
		want[2].SetInfinity()
		want[3].FromAffine(&other)
		want[3].AddMixed(&addend)
		want[4].FromAffine(&addend)
		fixedBaseWindowG1(out, limbs, idx, row, w, fixedBaseWindow, make([]ff.Fp, len(idx)), make([]uint32, len(idx)))
		for i := range want {
			if !out[i].Equal(&want[i]) || !out[i].IsInfinity() && !out[i].zIsOne() {
				t.Errorf("term %d: wrong sum or not affine", i)
			}
		}
	})
	t.Run("G2", func(t *testing.T) {
		row := g2GeneratorTable()[w]
		addend, other := row[d-1], G2Generator()
		var neg G2Affine
		neg.Neg(&addend)
		out := make([]G2Jac, len(idx))
		for i, a := range []*G2Affine{&addend, &addend, &neg, &other} {
			out[i].FromAffine(a)
		}
		var want [5]G2Jac
		want[0].FromAffine(&addend)
		want[0].Double(&want[0])
		want[1].SetInfinity()
		want[2].SetInfinity()
		want[3].FromAffine(&other)
		want[3].AddMixed(&addend)
		want[4].FromAffine(&addend)
		fixedBaseWindowG2(out, limbs, idx, row, w, fixedBaseWindow, make([]ff.Fp2, len(idx)), make([]uint32, len(idx)))
		for i := range want {
			if !out[i].Equal(&want[i]) || !out[i].IsInfinity() && !out[i].zIsOne() {
				t.Errorf("term %d: wrong sum or not affine", i)
			}
		}
	})
}

// TestFixedBaseAllocs pins fixed-base multiplication's scratch
// discipline: a warm call rents magnitudes, indices and per-chunk scratch
// from the arena and allocates nothing per point, so beyond the output
// and a handful of closures only the one Fp.Inverse per window allocates
// (it goes through math/big). One worker, as in TestMSMWindowAllocs.
func TestFixedBaseAllocs(t *testing.T) {
	if !arena.Enabled() {
		t.Skip("pooling disabled via ZKVC_NO_POOL")
	}
	parallel.SetDefaultSize(1)
	defer parallel.SetDefaultSize(0)
	rng := mrand.New(mrand.NewSource(85))
	var perInverse float64 // the most any of a few full-width inverses allocates
	for range 8 {
		var x, y ff.Fp
		x.SetPseudoRandom(rng)
		perInverse = max(perInverse, testing.AllocsPerRun(4, func() { y.Inverse(&x) }))
	}
	bound := 8 + float64(fixedBaseWindows(fixedBaseWindow))*perInverse
	scalars := randLogs(rng, 1024)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"G1", func() { FixedBaseMulG1(G1GeneratorJac(), scalars) }},
		{"G2", func() { FixedBaseMulG2(G2GeneratorJac(), scalars) }},
	} {
		tc.run() // warm the pools and the table
		avg := testing.AllocsPerRun(10, tc.run)
		t.Logf("%s: %.1f allocs/op (Fp.Inverse: %.0f)", tc.name, avg, perInverse)
		if avg > bound {
			t.Errorf("%s: warm fixed-base call allocates %.1f objects/op, want ≤ %.0f", tc.name, avg, bound)
		}
	}
}

// TestGeneratorTablesFirstUse hits the cached generator tables from many
// goroutines before anything has built them (the race job runs this
// under -race): every caller must see the one finished table, whose
// rows hold (k+1)·2^{cw}·G.
func TestGeneratorTablesFirstUse(t *testing.T) {
	g1GeneratorTable = sync.OnceValue(buildG1GeneratorTable)
	g2GeneratorTable = sync.OnceValue(buildG2GeneratorTable)
	rng := mrand.New(mrand.NewSource(82))
	scalars := randLogs(rng, 4)
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	var want1 G1Jac
	var want2 G2Jac
	want1.ScalarMul(&g1, &scalars[3])
	want2.ScalarMul(&g2, &scalars[3])
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := FixedBaseMulG1(g1, scalars); !got[3].Equal(&want1) {
				t.Error("G1 generator table: wrong multiple")
			}
			if got := FixedBaseMulG2(g2, scalars); !got[3].Equal(&want2) {
				t.Error("G2 generator table: wrong multiple")
			}
		}()
	}
	wg.Wait()
	t1, t2 := g1GeneratorTable(), g2GeneratorTable()
	if len(t1) != fixedBaseWindows(fixedBaseWindow) || len(t2) != len(t1) || len(t1[0]) != 1<<(fixedBaseWindow-1) || len(t2[0]) != len(t1[0]) {
		t.Fatalf("tables are %d×%d and %d×%d", len(t1), len(t1[0]), len(t2), len(t2[0]))
	}
	for _, at := range [][2]int{{0, 0}, {1, 1}, {len(t1) / 2, 517}, {len(t1) - 1, len(t1[0]) - 1}} {
		w, k := at[0], at[1]
		s := frFromBig(new(big.Int).Lsh(big.NewInt(int64(k+1)), uint(fixedBaseWindow*w)))
		var p1 G1Jac
		var p2 G2Jac
		p1.ScalarMul(&g1, &s)
		p2.ScalarMul(&g2, &s)
		if a1, a2 := p1.ToAffine(), p2.ToAffine(); !t1[w][k].Equal(&a1) || !t2[w][k].Equal(&a2) {
			t.Errorf("table[%d][%d] is not %d·2^%d·G", w, k, k+1, fixedBaseWindow*w)
		}
	}
}

// fixedBaseFuzzScalars decodes data as up to 24 scalars of 32 bytes,
// big-endian, reduced mod r.
func fixedBaseFuzzScalars(data []byte) []ff.Fr {
	scalars := make([]ff.Fr, min(len(data)/32, 24))
	for i := range scalars {
		scalars[i].SetBytes(data[32*i : 32*i+32])
	}
	return scalars
}

// addFixedBaseSeeds seeds a fixed-base fuzzer with the edge scalars, a
// repeated scalar (with its negative) and a lone non-zero among zeros.
func addFixedBaseSeeds(f *testing.F) {
	seed := func(vs ...*big.Int) {
		var data []byte
		for _, v := range vs {
			data = append(data, new(big.Int).Mod(v, ff.RModulus()).FillBytes(make([]byte, 32))...)
		}
		f.Add(data)
	}
	edge := fixedBaseEdgeScalars()
	seed(edge[:len(edge)/2]...)
	seed(edge[len(edge)/2:]...)
	x, _ := new(big.Int).SetString("1234567890123456789012345678901234567890123456789", 10)
	seed(x, x, x, new(big.Int).Neg(x), x)
	lone := make([]*big.Int, 24)
	for i := range lone {
		lone[i] = new(big.Int)
	}
	lone[17] = x
	seed(lone...)
}

// FuzzFixedBaseMulG1 checks FixedBaseMulG1 of the generator against
// ScalarMul on every term.
func FuzzFixedBaseMulG1(f *testing.F) {
	addFixedBaseSeeds(f)
	g := G1GeneratorJac()
	f.Fuzz(func(t *testing.T, data []byte) {
		scalars := fixedBaseFuzzScalars(data)
		for i, got := range FixedBaseMulG1(g, scalars) {
			var want G1Jac
			want.ScalarMul(&g, &scalars[i])
			if !got.Equal(&want) {
				t.Fatalf("G1 fixed-base disagrees with ScalarMul at term %d of %x", i, data)
			}
		}
	})
}

func FuzzFixedBaseMulG2(f *testing.F) {
	addFixedBaseSeeds(f)
	g := G2GeneratorJac()
	f.Fuzz(func(t *testing.T, data []byte) {
		scalars := fixedBaseFuzzScalars(data)
		for i, got := range FixedBaseMulG2(g, scalars) {
			var want G2Jac
			want.ScalarMul(&g, &scalars[i])
			if !got.Equal(&want) {
				t.Fatalf("G2 fixed-base disagrees with ScalarMul at term %d of %x", i, data)
			}
		}
	})
}

// fuzzMSM decodes data as up to 24 terms of 33 bytes — a tag (low nibble
// 1..8 one of 8 master points, else infinity; bits 4-5 the scalar's width
// 1, 3, 9 or 32 bytes; bit 6 its sign), then the scalar big-endian — and
// checks the MSM against naive Σ ScalarMul. The seeds in testdata/fuzz
// reach both classes, both signs, a point meeting itself and its
// negative in one bucket, infinity points and the sign-rule boundary.
func fuzzMSM(t *testing.T, g *msmGroup, data []byte) {
	n := min(len(data)/33, 24)
	sel := make([]int, n)
	scalars := make([]ff.Fr, n)
	for i := range sel {
		tag, raw := data[33*i], data[33*i+1:33*i+33]
		sel[i] = int(tag&15) - 1
		if sel[i] >= len(g.logs) {
			sel[i] = -1
		}
		scalars[i].SetBytes(raw[32-[]int{1, 3, 9, 32}[tag>>4&3]:])
		if tag&0x40 != 0 {
			scalars[i].Neg(&scalars[i])
		}
	}
	g.pick(sel)
	if g.msm(scalars, planMSM) != g.naive(scalars) {
		t.Fatalf("%s MSM disagrees with Σ ScalarMul on %x", g.name, data)
	}
}

func FuzzMSMG1(f *testing.F) {
	g := newG1Group(mrand.New(mrand.NewSource(83)), 8)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzMSM(t, g, data) })
}

func FuzzMSMG2(f *testing.F) {
	g := newG2Group(mrand.New(mrand.NewSource(84)), 8)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzMSM(t, g, data) })
}

func BenchmarkMSMG1_4096(b *testing.B) {
	rng := mrand.New(mrand.NewSource(50))
	const n = 4096
	pts := BatchToAffineG1(FixedBaseMulG1(G1GeneratorJac(), randLogs(rng, n)))
	scalars := randLogs(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MSMG1(pts, scalars)
	}
}

// BenchmarkFixedBaseMulG1 and BenchmarkFixedBaseMulG2 time CRS-style
// fixed-base multiplication of the generator by n random scalars, the
// generator tables already built.
func BenchmarkFixedBaseMulG1(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		scalars := randLogs(mrand.New(mrand.NewSource(51)), n)
		FixedBaseMulG1(G1GeneratorJac(), scalars[:1])
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FixedBaseMulG1(G1GeneratorJac(), scalars)
			}
		})
	}
}

func BenchmarkFixedBaseMulG2(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		scalars := randLogs(mrand.New(mrand.NewSource(52)), n)
		FixedBaseMulG2(G2GeneratorJac(), scalars[:1])
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FixedBaseMulG2(G2GeneratorJac(), scalars)
			}
		})
	}
}

// BenchmarkFixedBaseWindow sweeps the signed window width of fixed-base
// multiplication: time per point at n = 4096 (G1) and 1024 (G2), and the
// one-time generator table build as table-ms. Interleave by hand on a
// noisy box: ZKVC_PARALLELISM=1 go test -run '^$' -bench
// BenchmarkFixedBaseWindow -benchtime 5x ./internal/curve
func BenchmarkFixedBaseWindow(b *testing.B) {
	scalars := randLogs(mrand.New(mrand.NewSource(53)), 4096)
	g1, g2 := G1GeneratorJac(), G2GeneratorJac()
	for c := uint(8); c <= 12; c++ {
		start := time.Now()
		t1 := fixedBaseTable(&g1, c, BatchToAffineG1)
		build1 := time.Since(start)
		start = time.Now()
		t2 := fixedBaseTable(&g2, c, BatchToAffineG2)
		build2 := time.Since(start)
		for _, g := range []struct {
			name  string
			n     int
			build time.Duration
			run   func(s []ff.Fr)
		}{
			{"G1", 4096, build1, func(s []ff.Fr) { fixedBaseG1(t1, c, s) }},
			{"G2", 1024, build2, func(s []ff.Fr) { fixedBaseG2(t2, c, s) }},
		} {
			b.Run(fmt.Sprintf("%s/c=%d", g.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g.run(scalars[:g.n])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*g.n), "us/point")
				b.ReportMetric(float64(g.build.Microseconds())/1e3, "table-ms")
			})
		}
	}
}

// BenchmarkMSMWindow ablates the window width against the plan, on
// uniformly random scalars and on the quantized-witness shape (9-bit
// entries, 23-bit accumulations, signed).
func BenchmarkMSMWindow(b *testing.B) {
	rng := mrand.New(mrand.NewSource(78))
	const n = 8192
	points := BatchToAffineG1(FixedBaseMulG1(G1GeneratorJac(), randLogs(rng, n)))
	witness := make([]ff.Fr, n)
	for i := range witness {
		witness[i] = smallSigned(rng, 9)
		if i%3 == 0 {
			witness[i] = smallSigned(rng, 23)
		}
	}
	for _, shape := range []struct {
		name    string
		scalars []ff.Fr
		widths  []uint
	}{
		{"full", randLogs(rng, n), []uint{5, 8, 9, 10, 11, 12, 14}},
		{"witness", witness, []uint{4, 6, 8, 10, 12, 13}},
	} {
		b.Run(shape.name+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MSMG1(points, shape.scalars)
			}
		})
		for _, c := range shape.widths {
			b.Run(fmt.Sprintf("%s/c=%d", shape.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					msm(points, shape.scalars, fixedWindow(c), &g1JacPool, func(i int) bool { return points[i].Infinity })
				}
			})
		}
	}
}
