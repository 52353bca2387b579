// Package crpc builds zkVC's matmul circuits (paper §III). One builder,
// synthesize, proves a batch of relations Y_m = X_m·W_m; a single
// statement is a batch of one. Two independent switches pick the circuit,
// giving the four circuits of the paper's Table II ablation:
//
//   - CRPC (Constraint-Reduced Polynomial Circuits) picks the products.
//     Off, the circuit multiplies every scalar x_ik·w_kj and closes each
//     y_ij on its own n products. On, Y[a×b] = X[a×n]·W[n×b] is verified
//     through the single aggregated polynomial identity
//
//     Σ_{i,j} Z^{ib+j}·y_ij  =  Σ_k ( Σ_i Z^{ib}·x_ik )·( Σ_j Z^j·w_kj )
//
//     at a Fiat–Shamir challenge Z. Both inner sums are linear
//     combinations — free in R1CS — so only n multiplication constraints
//     remain instead of a·b·n. The monomials Z^{ib+j} are pairwise
//     distinct, so by Schwartz–Zippel a false Y survives with probability
//     at most a·b/|F| ≈ 2^{-240}. A batch folds its statements' identities
//     into one with a second challenge γ (batch.go).
//
//   - PSQ (Prefix-Sum Query) picks how each group of products is summed.
//     Off, every product gets a wire and one wide addition constraint,
//     whose left side touches every product wire, closes the sum. On, each
//     constraint writes into a running prefix sum: p_k = s_k − s_{k−1}.
//     The last prefix IS the result, the wide addition disappears, and the
//     number of live wires drops.
package crpc

import (
	"crypto/sha256"
	"fmt"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/matrix"
	"zkvc/internal/mle"
	"zkvc/internal/r1cs"
	"zkvc/internal/transcript"
)

// Options selects which optimizations to apply; the zero value is the
// vanilla circuit (paper Figure 4a / 5a).
type Options struct {
	CRPC bool
	PSQ  bool
}

// String names the configuration as in Table II.
func (o Options) String() string {
	switch {
	case o.CRPC && o.PSQ:
		return "CRPC+PSQ"
	case o.CRPC:
		return "CRPC"
	case o.PSQ:
		return "PSQ"
	default:
		return "vanilla"
	}
}

// Statement is the matmul relation Y = X·W with X and Y public and the
// model matrix W private (Figure 1's client/server split).
type Statement struct {
	X, Y *matrix.Matrix // public
	W    *matrix.Matrix // private witness
}

// NewStatement computes Y = X·W honestly and packages the statement.
func NewStatement(x, w *matrix.Matrix) *Statement {
	return &Statement{X: x, W: w, Y: matrix.Mul(x, w)}
}

// Synthesis is a synthesized matmul circuit with its satisfying
// assignment.
type Synthesis struct {
	Sys        *r1cs.System
	Assignment []ff.Fr
	Public     []ff.Fr
	Z          ff.Fr // the CRPC challenge (zero when CRPC is off)
	Opts       Options
}

// Stats exposes circuit complexity for the ablation tables.
func (s *Synthesis) Stats() r1cs.Stats { return s.Sys.Stats() }

// WCommit returns the hash commitment to the private matrix used in the
// Fiat–Shamir derivation of Z.
func WCommit(w *matrix.Matrix) []byte {
	h := sha256.New()
	w.WriteCanonical(h)
	return h.Sum(nil)
}

// DeriveZ computes the CRPC challenge by Fiat–Shamir over the public
// matrices and a hash commitment to W. Binding the commitment to the
// in-circuit witness is a protocol-level assumption shared with
// vCNN-style CP-SNARK linkage (see DESIGN.md).
func DeriveZ(stmt *Statement) ff.Fr {
	return DeriveZFromCommit(stmt.X, stmt.Y, WCommit(stmt.W))
}

// DeriveZFromCommit recomputes Z on the verifier side, which holds only
// the public matrices and the prover's commitment to W.
func DeriveZFromCommit(x, y *matrix.Matrix, wCommit []byte) ff.Fr {
	tr := transcript.New("zkvc.crpc.z")
	tr.AppendFrom("x", x)
	tr.AppendFrom("y", y)
	tr.Append("w.commit", wCommit)
	return tr.ChallengeFr("z")
}

// DeriveEpochZ derives a CRPC challenge bound to an epoch label and a
// circuit shape instead of an individual statement. All proofs of one
// (shape, opts) family within the epoch share this Z, so the Groth16 CRS
// for the family can be generated once and cached — the deployment the
// MatMulProver doc comment envisions, where a trusted party samples the
// epoch after provers have fixed their models. Soundness then rests on the
// epoch being unpredictable at commitment time rather than on per-statement
// Fiat–Shamir; rotate epochs to bound exposure.
func DeriveEpochZ(epoch []byte, a, n, b int, opts Options) ff.Fr {
	tr := transcript.New("zkvc.crpc.epoch.z")
	tr.Append("epoch", epoch)
	tr.AppendUint64("a", uint64(a))
	tr.AppendUint64("n", uint64(n))
	tr.AppendUint64("b", uint64(b))
	var bits byte
	if opts.CRPC {
		bits |= 1
	}
	if opts.PSQ {
		bits |= 2
	}
	tr.Append("opts", []byte{bits})
	return tr.ChallengeFr("z")
}

// check rejects a statement whose dimensions disagree.
func (s *Statement) check() error {
	a, n := s.X.Rows, s.X.Cols
	if s.W.Rows != n {
		return fmt.Errorf("crpc: inner dimensions %d != %d", n, s.W.Rows)
	}
	if s.Y.Rows != a || s.Y.Cols != s.W.Cols {
		return fmt.Errorf("crpc: output is %dx%d, want %dx%d", s.Y.Rows, s.Y.Cols, a, s.W.Cols)
	}
	return nil
}

// Synthesize builds the circuit selected by opts and returns the system,
// assignment and public witness. It errors if the dimensions disagree.
func Synthesize(stmt *Statement, opts Options) (*Synthesis, error) {
	var z ff.Fr
	if opts.CRPC {
		z = DeriveZ(stmt)
	}
	return SynthesizeAt(stmt, z, opts)
}

// SynthesizeAt builds the circuit at a caller-supplied challenge. The
// epoch-keyed proving path uses it with DeriveEpochZ so the circuit (and
// hence the Groth16 CRS) matches a cached per-shape setup.
func SynthesizeAt(stmt *Statement, z ff.Fr, opts Options) (*Synthesis, error) {
	if err := stmt.check(); err != nil {
		return nil, err
	}
	return synthesize([]*Statement{stmt}, z, ff.Fr{}, opts), nil
}

// SynthesizeShape rebuilds just the constraint system for given dimensions
// and challenge, without any witness values: the circuit structure depends
// only on (a, n, b, Z, opts), so a verifier can reconstruct it from public
// data.
func SynthesizeShape(a, n, b int, z ff.Fr, opts Options) *r1cs.System {
	return synthesize(zeroStatements([][3]int{{a, n, b}}), z, ff.Fr{}, opts).Sys
}

// zeroStatements returns all-zero statements of the given (a, n, b)
// shapes, from which the shape-only builders synthesize.
func zeroStatements(shapes [][3]int) []*Statement {
	stmts := make([]*Statement, len(shapes))
	for m, sh := range shapes {
		stmts[m] = &Statement{X: matrix.New(sh[0], sh[1]), W: matrix.New(sh[1], sh[2]), Y: matrix.New(sh[0], sh[2])}
	}
	return stmts
}

// synthesize is the one matmul circuit builder. It proves every statement
// of stmts, whose dimensions the caller has checked; a single statement is
// a batch of one (γ⁰ = 1, so the fold adds nothing). The public wires are
// every X, then every Y, in batch order; the W entries are the first
// private wires.
//
// CRPC picks the products. Off, each y_ij closes its own group of n
// scalar products x_ik·w_kj. On, statement m contributes its n products
// L_k·R_k of the γ^m-scaled Z-weighted column of X with the Z-weighted row
// of W, and the whole batch closes one group on
// Σ_m γ^m Σ_{i,j} Z^{ib+j}·y^{(m)}_ij. PSQ picks how each group is summed
// (accumulate).
func synthesize(stmts []*Statement, z, gamma ff.Fr, opts Options) *Synthesis {
	// Reserve the exact upper bound so synthesis is free of append-growth
	// garbage. CRPC: n multiplication constraints per statement (+1
	// closing add), with at most one product or prefix wire each.
	// Vanilla: one constraint and one wire per scalar product plus one
	// closing constraint per output.
	cons, wires, products, outputs, maxPow := 0, 0, 0, 0, 0
	for _, s := range stmts {
		a, n, b := s.X.Rows, s.X.Cols, s.W.Cols
		wires += a*n + a*b + n*b
		if opts.CRPC {
			cons, wires = cons+n+1, wires+2*n+1
		} else {
			cons, wires = cons+a*b*(n+1), wires+a*b*(n+1)
		}
		products, outputs, maxPow = products+n, outputs+a*b, max(maxPow, a*b, b)
	}
	bld := r1cs.NewBuilder()
	bld.Grow(cons, wires)
	xs, ys, ws := make([][]r1cs.Var, len(stmts)), make([][]r1cs.Var, len(stmts)), make([][]r1cs.Var, len(stmts))
	for m, s := range stmts {
		xs[m] = allocate(s.X, bld.PublicInput)
	}
	for m, s := range stmts {
		ys[m] = allocate(s.Y, bld.PublicInput)
	}
	for m, s := range stmts {
		ws[m] = allocate(s.W, bld.Secret)
	}

	syn := &Synthesis{Opts: opts}
	if !opts.CRPC {
		for m, s := range stmts {
			a, n, b := s.X.Rows, s.X.Cols, s.W.Cols
			lefts, rights := make([]r1cs.LC, n), make([]r1cs.LC, n)
			for i := range a {
				for j := range b {
					for k := range n {
						lefts[k], rights[k] = r1cs.VarLC(xs[m][i*n+k]), r1cs.VarLC(ws[m][k*b+j])
					}
					accumulate(bld, lefts, rights, r1cs.VarLC(ys[m][i*b+j]), opts.PSQ)
				}
			}
		}
	} else {
		syn.Z = z
		pows := make([]ff.Fr, maxPow+1)
		pows[0].SetOne()
		for e := 1; e <= maxPow; e++ {
			pows[e].Mul(&pows[e-1], &z)
		}
		target := make(r1cs.LC, 0, outputs)
		lefts, rights := make([]r1cs.LC, 0, products), make([]r1cs.LC, 0, products)
		var gammaPow ff.Fr
		gammaPow.SetOne()
		for m, s := range stmts {
			a, n, b := s.X.Rows, s.X.Cols, s.W.Cols
			// coeff is γ^m·Z^e; the first statement skips the multiply by γ⁰.
			coeff := func(e int) ff.Fr {
				c := pows[e]
				if m > 0 {
					c.Mul(&c, &gammaPow)
				}
				return c
			}
			for i := range a {
				for j := range b {
					target = append(target, r1cs.Term{Coeff: coeff(i*b + j), V: ys[m][i*b+j]})
				}
			}
			// One backing array per statement; the three-index slices keep
			// each LC from growing into its neighbour.
			terms := make([]r1cs.Term, n*(a+b))
			for k := range n {
				left, right := terms[:a:a], terms[a:a+b:a+b]
				terms = terms[a+b:]
				for i := range a {
					left[i] = r1cs.Term{Coeff: coeff(i * b), V: xs[m][i*n+k]}
				}
				for j := range b {
					right[j] = r1cs.Term{Coeff: pows[j], V: ws[m][k*b+j]}
				}
				lefts, rights = append(lefts, left), append(rights, right)
			}
			gammaPow.Mul(&gammaPow, &gamma)
		}
		accumulate(bld, lefts, rights, target, opts.PSQ)
	}
	syn.Sys, syn.Assignment = bld.Finish()
	syn.Public = bld.PublicWitness()
	return syn
}

// allocate gives every entry of mat a wire, in row-major order.
func allocate(mat *matrix.Matrix, wire func(ff.Fr) r1cs.Var) []r1cs.Var {
	vars := make([]r1cs.Var, len(mat.Data))
	for i := range mat.Data {
		vars[i] = wire(mat.Data[i])
	}
	return vars
}

// accumulate closes one group of products, Σ_k lefts[k]·rights[k] =
// target. Without PSQ every product gets its own wire and one wide
// addition constraint closes the sum (Figure 5a). With PSQ each product
// constraint writes into a running prefix sum, p_k = s_k − s_{k−1}, and
// the last one writes against the target itself (Figure 5b); an empty
// group then adds nothing.
func accumulate(bld *r1cs.Builder, lefts, rights []r1cs.LC, target r1cs.LC, psq bool) {
	if !psq {
		var one ff.Fr
		one.SetOne()
		sum := make(r1cs.LC, 0, len(lefts))
		for k := range lefts {
			sum = append(sum, r1cs.Term{Coeff: one, V: bld.Mul(lefts[k], rights[k])})
		}
		bld.AssertEqual(sum, target)
		return
	}
	var prev r1cs.LC
	var prefix ff.Fr // s_k, the running value
	for k := range lefts {
		next := target
		if k < len(lefts)-1 {
			l, r := bld.Eval(lefts[k]), bld.Eval(rights[k])
			l.Mul(&l, &r)
			prefix.Add(&prefix, &l)
			next = r1cs.VarLC(bld.Secret(prefix))
		}
		rhs := next
		if prev != nil {
			rhs = r1cs.SubLC(next, prev)
		}
		bld.AssertMul(lefts[k], rights[k], rhs)
		prev = next
	}
}

// Circuit is the verifier's view of the CRPC circuit that synthesize
// builds over statements of the given (a, n, b) shapes at the challenges
// Z and γ. It is a spartan.Circuit that evaluates its matrices in closed
// form from the wire layout, building no constraint system. It requires
// Opts.CRPC.
type Circuit struct {
	Shapes   [][3]int
	Z, Gamma ff.Fr
	Opts     Options
}

// Size returns synthesize's counts: P = Σn product constraints, plus the
// closing addition without PSQ; the wires 1, every X, every Y, every W,
// then P product wires without PSQ or P−1 prefix wires with it.
func (c *Circuit) Size() (constraints, vars, public int) {
	p, witness := 0, 0
	public = 1
	for _, sh := range c.Shapes {
		public, witness, p = public+sh[0]*sh[1]+sh[0]*sh[2], witness+sh[1]*sh[2], p+sh[1]
	}
	if c.Opts.PSQ {
		return p, public + witness + max(p-1, 0), public
	}
	return p + 1, public + witness + p, public
}

// EvalMatrices returns rA·Ã(rx,ry) + rB·B̃(rx,ry) + rC·C̃(rx,ry). With
// ex = eq(rx, ·), ey = eq(ry, ·) and statement m's products at
// constraints p₀+k, A-row p₀+k is γ^m·Σᵢ Z^{ib}·x_ik, B-row p₀+k is
// Σⱼ Z^j·w_kj, and the target T = Σ_m γ^m Σ_{i,j} Z^{ib+j}·y_ij is in C
// of the last constraint. Each sum over wires is a dot product of ey with
// a contiguous run of them: one multiply per wire.
func (c *Circuit) EvalMatrices(rx []ff.Fr, ey *mle.SplitEq, r *[3]ff.Fr) ff.Fr {
	_, _, numPublic := c.Size()
	maxPow, yOff := 0, 1
	for _, sh := range c.Shapes {
		maxPow, yOff = max(maxPow, sh[0]*sh[2], sh[2]), yOff+sh[0]*sh[1]
	}
	ex, pows := arena.Frs(1<<len(rx)), arena.Frs(maxPow+1)
	defer arena.PutFrs(ex)
	defer arena.PutFrs(pows)
	mle.EqTableInto(rx, ex)
	pows[0].SetOne()
	for e := 1; e <= maxPow; e++ {
		pows[e].Mul(&pows[e-1], &c.Z)
	}

	var va, vb, vc, target, gammaPow, t ff.Fr
	gammaPow.SetOne()
	xOff, wOff, p0 := 1, numPublic, 0
	for _, sh := range c.Shapes {
		a, n, b := sh[0], sh[1], sh[2]
		var am ff.Fr
		for i := range a {
			d := ey.Dot(xOff+i*n, ex[p0:p0+n])
			am.Add(&am, t.Mul(&d, &pows[i*b]))
		}
		cm := ey.Dot(yOff, pows[:a*b])
		va.Add(&va, am.Mul(&am, &gammaPow))
		target.Add(&target, cm.Mul(&cm, &gammaPow))
		for k := range n {
			d := ey.Dot(wOff+k*b, pows[:b])
			vb.Add(&vb, t.Mul(&d, &ex[p0+k]))
		}
		xOff, yOff, wOff, p0 = xOff+a*n, yOff+a*b, wOff+n*b, p0+n
		gammaPow.Mul(&gammaPow, &c.Gamma)
	}

	// The P product or prefix wires start at wOff; w holds their weights.
	w := arena.Frs(p0)
	defer arena.PutFrs(w)
	var vm ff.Fr
	switch {
	case !c.Opts.PSQ:
		// Constraint p's C is product wire q_p, and constraint P is
		// Σ_p q_p · 1 = T: q_p weighs rC·ex[p] + rA·ex[P].
		ey0 := ey.Dot(0, pows[:1]) // the constant wire (pows[0] = 1)
		vb.Add(&vb, t.Mul(&ex[p0], &ey0))
		vc.Mul(&ex[p0], &target)
		t.Mul(&r[0], &ex[p0])
		for p := range p0 {
			w[p].Add(w[p].Mul(&r[2], &ex[p]), &t)
		}
		vm = ey.Dot(wOff, w)
	case p0 > 0:
		// Constraint p's C is s_p − s_{p−1} (the last T − s_{P−2}), so
		// prefix wire s_p weighs ex[p] − ex[p+1] in C.
		for p := range p0 - 1 {
			w[p].Sub(&ex[p], &ex[p+1])
		}
		d := ey.Dot(wOff, w[:p0-1])
		vc.Add(vc.Mul(&ex[p0-1], &target), &d)
	}
	for m, v := range [3]*ff.Fr{&va, &vb, &vc} {
		vm.Add(&vm, t.Mul(&r[m], v))
	}
	return vm
}
