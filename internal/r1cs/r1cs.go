// Package r1cs provides a rank-1 constraint system and a concrete-synthesis
// circuit builder: variables are allocated with their witness values, so a
// finished builder yields both the constraint system and a satisfying
// assignment. Constraints have the form ⟨A,z⟩·⟨B,z⟩ = ⟨C,z⟩ where z is the
// assignment vector and z[0] is the constant 1.
package r1cs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"

	"zkvc/internal/ff"
)

// Var identifies a wire. Var 0 is the constant-1 wire. Public-input wires
// occupy indices 1..NumPublic−1; everything after is private.
type Var int

// Term is a coefficient–variable product inside a linear combination.
type Term struct {
	Coeff ff.Fr
	V     Var
}

// LC is a linear combination Σ coeff_i·z[v_i].
type LC []Term

// Constraint asserts ⟨A,z⟩ · ⟨B,z⟩ = ⟨C,z⟩.
type Constraint struct {
	A, B, C LC
}

// System is an immutable R1CS instance.
type System struct {
	NumPublic   int // number of instance wires including the constant 1
	NumVars     int // total wires
	Constraints []Constraint
}

// EvalLC computes ⟨lc, z⟩. Coefficient-1 terms, the bulk of every
// gadget and matmul LC, are added without a multiplication.
func EvalLC(lc LC, z []ff.Fr) ff.Fr {
	var acc, t ff.Fr
	for i := range lc {
		if lc[i].Coeff.IsOne() {
			acc.Add(&acc, &z[lc[i].V])
			continue
		}
		t.Mul(&lc[i].Coeff, &z[lc[i].V])
		acc.Add(&acc, &t)
	}
	return acc
}

// Satisfied checks every constraint against the assignment z and returns a
// descriptive error for the first violated one.
func (s *System) Satisfied(z []ff.Fr) error {
	if len(z) != s.NumVars {
		return fmt.Errorf("r1cs: assignment length %d != %d vars", len(z), s.NumVars)
	}
	for q := range s.Constraints {
		c := &s.Constraints[q]
		a := EvalLC(c.A, z)
		b := EvalLC(c.B, z)
		cc := EvalLC(c.C, z)
		var ab ff.Fr
		ab.Mul(&a, &b)
		if !ab.Equal(&cc) {
			return fmt.Errorf("r1cs: constraint %d violated: %v * %v != %v", q, &a, &b, &cc)
		}
	}
	return nil
}

// NumConstraints returns the constraint count.
func (s *System) NumConstraints() int { return len(s.Constraints) }

// StructureDigest fingerprints the circuit structure: wire layout and
// every constraint's sparse coefficients, independent of any assignment.
// Two systems share a digest exactly when a proving key generated for one
// is valid for the other, which is what lets a CRS cache key on "gadget
// circuit shape" instead of special-casing matmul dimensions — identical
// transformer blocks hash identically, a different clip threshold or
// range width hashes differently.
func (s *System) StructureDigest() [sha256.Size]byte {
	h := sha256.New()
	var u [8]byte
	word := func(v int) {
		binary.BigEndian.PutUint64(u[:], uint64(v))
		h.Write(u[:])
	}
	word(s.NumPublic)
	word(s.NumVars)
	word(len(s.Constraints))
	lc := func(terms LC) {
		word(len(terms))
		for i := range terms {
			word(int(terms[i].V))
			b := terms[i].Coeff.Bytes()
			h.Write(b[:])
		}
	}
	for q := range s.Constraints {
		lc(s.Constraints[q].A)
		lc(s.Constraints[q].B)
		lc(s.Constraints[q].C)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// Stats summarizes circuit complexity: constraints, variables, and the
// total number of LC terms on the A ("left wires"), B and C sides. The
// A-side term count is the "left wire" metric that PSQ optimizes.
type Stats struct {
	Constraints int
	Variables   int
	Public      int
	ATerms      int
	BTerms      int
	CTerms      int
}

// Stats computes complexity statistics for the system.
func (s *System) Stats() Stats {
	st := Stats{
		Constraints: len(s.Constraints),
		Variables:   s.NumVars,
		Public:      s.NumPublic,
	}
	for q := range s.Constraints {
		st.ATerms += len(s.Constraints[q].A)
		st.BTerms += len(s.Constraints[q].B)
		st.CTerms += len(s.Constraints[q].C)
	}
	return st
}

// Builder incrementally constructs a System together with a satisfying
// assignment. All public inputs must be allocated before the first private
// wire (a Groth16 requirement on variable ordering).
type Builder struct {
	numPublic   int
	constraints []Constraint
	assignment  []ff.Fr
	sealed      bool // set once the first private wire is allocated
}

// NewBuilder returns a builder holding only the constant-1 wire.
func NewBuilder() *Builder {
	b := &Builder{numPublic: 1}
	var one ff.Fr
	one.SetOne()
	b.assignment = append(b.assignment, one)
	return b
}

// One returns the constant-1 wire.
func (b *Builder) One() Var { return 0 }

// Grow reserves capacity for at least n more constraints and v more wires,
// so synthesis of circuits with known shape runs without append-growth
// garbage. Underestimates are safe (appends fall back to growth).
func (b *Builder) Grow(n, v int) {
	if n > 0 && cap(b.constraints)-len(b.constraints) < n {
		c := make([]Constraint, len(b.constraints), len(b.constraints)+n)
		copy(c, b.constraints)
		b.constraints = c
	}
	if v > 0 && cap(b.assignment)-len(b.assignment) < v {
		a := make([]ff.Fr, len(b.assignment), len(b.assignment)+v)
		copy(a, b.assignment)
		b.assignment = a
	}
}

// PublicInput allocates an instance wire with the given value.
func (b *Builder) PublicInput(v ff.Fr) Var {
	if b.sealed {
		panic("r1cs: public inputs must be allocated before private wires")
	}
	b.assignment = append(b.assignment, v)
	b.numPublic++
	return Var(len(b.assignment) - 1)
}

// Secret allocates a private (witness) wire with the given value.
func (b *Builder) Secret(v ff.Fr) Var {
	b.sealed = true
	b.assignment = append(b.assignment, v)
	return Var(len(b.assignment) - 1)
}

// Value returns the assigned value of a wire.
func (b *Builder) Value(v Var) ff.Fr { return b.assignment[v] }

// Eval computes the value of a linear combination under the current
// assignment.
func (b *Builder) Eval(lc LC) ff.Fr { return EvalLC(lc, b.assignment) }

// AddConstraint appends a raw constraint; the caller is responsible for it
// being satisfied (checked by Finish in tests via Satisfied).
func (b *Builder) AddConstraint(a, bb, c LC) {
	b.constraints = append(b.constraints, Constraint{A: a, B: bb, C: c})
}

// Mul allocates the product wire of two linear combinations and constrains
// it: one multiplication constraint.
func (b *Builder) Mul(x, y LC) Var {
	vx := b.Eval(x)
	vy := b.Eval(y)
	var prod ff.Fr
	prod.Mul(&vx, &vy)
	out := b.Secret(prod)
	b.AddConstraint(x, y, VarLC(out))
	return out
}

// Div allocates q with q·y = x. Division by an assigned zero panics: that
// is a malformed witness, a programmer error at synthesis time.
func (b *Builder) Div(x, y LC) Var {
	vx := b.Eval(x)
	vy := b.Eval(y)
	if vy.IsZero() {
		panic("r1cs: division by zero during synthesis")
	}
	var inv, q ff.Fr
	inv.Inverse(&vy)
	q.Mul(&vx, &inv)
	out := b.Secret(q)
	b.AddConstraint(VarLC(out), y, x)
	return out
}

// AssertMul adds x·y = z without allocating.
func (b *Builder) AssertMul(x, y, z LC) { b.AddConstraint(x, y, z) }

// AssertEqual adds x = y (as x·1 = y).
func (b *Builder) AssertEqual(x, y LC) { b.AddConstraint(x, OneLC(), y) }

// AssertZero adds x = 0.
func (b *Builder) AssertZero(x LC) { b.AddConstraint(x, OneLC(), LC{}) }

// AssertBool adds x·(x−1) = 0.
func (b *Builder) AssertBool(x LC) {
	var one ff.Fr
	one.SetOne()
	xm1 := SubLC(x, ConstLC(one))
	b.AddConstraint(x, xm1, LC{})
}

// Finish freezes the builder into a System plus full assignment.
func (b *Builder) Finish() (*System, []ff.Fr) {
	sys := &System{
		NumPublic:   b.numPublic,
		NumVars:     len(b.assignment),
		Constraints: b.constraints,
	}
	z := make([]ff.Fr, len(b.assignment))
	copy(z, b.assignment)
	return sys, z
}

// PublicWitness returns the instance part of the assignment (including the
// leading constant 1).
func (b *Builder) PublicWitness() []ff.Fr {
	out := make([]ff.Fr, b.numPublic)
	copy(out, b.assignment[:b.numPublic])
	return out
}

// VarLC wraps a single wire as a linear combination.
func VarLC(v Var) LC {
	var one ff.Fr
	one.SetOne()
	return LC{{Coeff: one, V: v}}
}

// OneLC is the constant-1 linear combination.
func OneLC() LC { return VarLC(0) }

// ConstLC is the constant-c linear combination.
func ConstLC(c ff.Fr) LC { return LC{{Coeff: c, V: 0}} }

// ScaleLC returns c·lc as a fresh linear combination, dropping the terms
// whose product is zero. Duplicate variables are kept as they are.
func ScaleLC(lc LC, c *ff.Fr) LC {
	out := make(LC, 0, len(lc))
	for _, t := range lc {
		t.Coeff.Mul(&t.Coeff, c)
		if !t.Coeff.IsZero() {
			out = append(out, t)
		}
	}
	return out
}

// AddLC returns a + b, merging duplicate variables: each variable keeps
// the position of its first appearance in a then b, and variables whose
// coefficients sum to zero are dropped.
func AddLC(a, b LC) LC { return combine(a, b, false) }

// SubLC returns a − b, merged as AddLC merges a and −b.
func SubLC(a, b LC) LC { return combine(a, b, true) }

// combine accumulates the terms of a and then of ±b into one fresh LC
// without a map, in time linear in |a|+|b|.
func combine(a, b LC, negB bool) LC {
	n := len(a) + len(b)
	out := make(LC, 0, n)
	// One slot per variable seen, at most n of them, in a table of more
	// than 2n slots, so it is never half full. A merge of up to 31 terms
	// indexes a table on the stack and allocates only its result; the
	// scaled-ViT gadgets merge at most 6.
	var stack [64]int32
	var slots []int32
	if size := 1 << bits.Len(uint(2*n)); size <= len(stack) {
		slots = stack[:size]
	} else {
		slots = make([]int32, size)
	}
	for k, lc := range [2]LC{a, b} {
		for _, t := range lc {
			if k == 1 && negB {
				// −b as ScaleLC(b, −1) forms it: a zero term of b is
				// dropped before the merge and claims no position.
				if t.Coeff.IsZero() {
					continue
				}
				t.Coeff.Neg(&t.Coeff)
			}
			if i := index(slots, out, t.V); i < len(out) {
				out[i].Coeff.Add(&out[i].Coeff, &t.Coeff)
			} else {
				out = append(out, t)
			}
		}
	}
	k := 0
	for i := range out {
		if !out[i].Coeff.IsZero() {
			out[k] = out[i]
			k++
		}
	}
	return out[:k]
}

// index returns the position of v in out, found through the
// open-addressed slots (1 + position, 0 for empty), or claims a slot for
// it and returns len(out), where combine appends it.
func index(slots []int32, out LC, v Var) int {
	mask := len(slots) - 1
	s := int(uint64(v)*0x9e3779b97f4a7c15>>32) & mask
	for ; slots[s] != 0; s = (s + 1) & mask {
		if i := int(slots[s]) - 1; out[i].V == v {
			return i
		}
	}
	slots[s] = int32(len(out) + 1)
	return len(out)
}
