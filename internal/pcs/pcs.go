package pcs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"zkvc/internal/arena"
	"zkvc/internal/ff"
	"zkvc/internal/mle"
	"zkvc/internal/parallel"
	"zkvc/internal/poly"
	"zkvc/internal/transcript"
)

// Params configures the code rate and the number of column spot checks.
// Soundness error is roughly (1 − δ)^Queries for proximity parameter δ
// determined by the blowup; the defaults target the benchmarking regime
// (see DESIGN.md for the security discussion).
type Params struct {
	Blowup  int // Reed–Solomon expansion factor (≥ 2, power of two)
	Queries int // number of spot-checked columns
}

// DefaultParams matches a rate-1/4 code with 33 queries.
func DefaultParams() Params { return Params{Blowup: 4, Queries: 33} }

// Commitment is the verifier's view of a committed multilinear polynomial.
type Commitment struct {
	Root    [32]byte
	NumVars int
	Rows    int
	Cols    int
}

// ProverState retains everything the prover needs to open the commitment.
// Its matrices live in rented arena buffers; call Release when the last
// opening has been produced.
type ProverState struct {
	params   Params
	rows     int
	cols     int
	numVars  int
	padded   []ff.Fr   // rented backing store of the message rows
	message  [][]ff.Fr // rows × cols message matrix (aliases padded)
	codeword [][]ff.Fr // rows × (cols·blowup) RS codewords (rented)
	nonzero  []int     // ascending indices of the rows with a nonzero entry
	tree     *merkleTree
	comm     Commitment
}

// Release returns every pooled buffer held by the state (message backing
// store, codeword rows, Merkle layers) to the arena. The state must not
// be used afterwards. Commitments and Openings stay valid: they never
// alias pooled memory.
func (st *ProverState) Release() {
	for i := range st.codeword {
		arena.PutFrs(st.codeword[i])
	}
	arena.PutFrSlices(st.codeword)
	arena.PutFrSlices(st.message) // rows alias padded; only the header table is pooled
	arena.PutFrs(st.padded)
	if st.tree != nil {
		st.tree.release()
	}
	st.padded, st.message, st.codeword, st.nonzero, st.tree = nil, nil, nil, nil, nil
}

// ColumnOpening reveals one codeword column with its Merkle path.
type ColumnOpening struct {
	Index  int
	Values []ff.Fr
	Path   [][32]byte
}

// Opening proves one evaluation of the committed polynomial.
type Opening struct {
	URand   []ff.Fr // random row combination (proximity)
	UEq     []ff.Fr // eq-weighted row combination (consistency)
	Columns []ColumnOpening
}

// SizeBytes estimates the wire size of the opening.
func (o *Opening) SizeBytes() int {
	n := 32 * (len(o.URand) + len(o.UEq))
	for _, c := range o.Columns {
		n += 8 + 32*len(c.Values) + 32*len(c.Path)
	}
	return n
}

// Commit arranges the 2^k evaluation vector as a ~square matrix, encodes
// the rows, and Merkle-commits the codeword columns.
func Commit(values []ff.Fr, p Params) (*Commitment, *ProverState, error) {
	if p.Blowup < 2 {
		return nil, nil, errors.New("pcs: blowup must be at least 2")
	}
	k := 0
	for (1 << k) < len(values) {
		k++
	}
	padded := arena.Frs(1 << k)
	copy(padded, values)

	rowVars := k / 2
	rows := 1 << rowVars
	cols := 1 << (k - rowVars)

	st := &ProverState{params: p, rows: rows, cols: cols, numVars: k, padded: padded}
	st.message = arena.FrSlices(rows)
	st.codeword = arena.FrSlices(rows)
	d, err := poly.Shared(cols * p.Blowup)
	if err != nil {
		st.tree = nil
		st.Release()
		return nil, nil, err
	}
	// Rows are Reed–Solomon encoded independently, so an all-zero row's
	// codeword is the zero vector: the arena's zeroed buffer already is
	// it, and only the nonzero rows (a Spartan witness's zeroed public
	// slots and power-of-two padding are whole zero rows) are encoded.
	// Rows fan out one at a time across the shared worker budget.
	// Codeword rows are arena checkouts, released with the state.
	st.nonzero = make([]int, 0, rows)
	for i := range st.message {
		st.message[i] = padded[i*cols : (i+1)*cols]
		if slices.ContainsFunc(st.message[i], func(x ff.Fr) bool { return !x.IsZero() }) {
			st.nonzero = append(st.nonzero, i)
		}
	}
	parallel.For(rows, 1, func(start, end int) {
		for i := start; i < end; i++ {
			st.codeword[i] = arena.Frs(d.N)
			if _, found := slices.BinarySearch(st.nonzero, i); found {
				d.Encode(st.message[i], st.codeword[i])
			}
		}
	})
	// Column leaves are hashed straight into the tree's leaf layer from a
	// per-chunk rented serialization buffer, each element's canonical
	// bytes written in place, so no leaf byte slices are ever
	// materialized. The buffer layout reproduces
	// hashLeaf(leafBytes(column)) exactly: 0x00 domain tag, then the
	// little-endian row count, then the big-endian column elements. The
	// buffer is rented zeroed, which is the encoding of a zero row's
	// entries, so only nonzero rows are written.
	leafHashes := arena.Hashes(d.N)
	parallel.For(d.N, hashGrain, func(start, end int) {
		scratch := arena.Bytes(9 + 32*rows)
		scratch[0] = 0x00
		binary.LittleEndian.PutUint64(scratch[1:9], uint64(rows))
		for j := start; j < end; j++ {
			for _, i := range st.nonzero {
				st.codeword[i][j].PutBytes(scratch[9+32*i:])
			}
			leafHashes[j] = sha256.Sum256(scratch[:9+32*rows])
		}
		arena.PutBytes(scratch)
	})
	st.tree = newMerkleTreeHashed(leafHashes)
	st.comm = Commitment{Root: st.tree.root(), NumVars: k, Rows: rows, Cols: cols}
	return &st.comm, st, nil
}

// Eval evaluates the committed polynomial at a point (prover side) as
// Σᵢ eqR[i]·⟨rowᵢ, eqC⟩ over the nonzero rows.
func (st *ProverState) Eval(point []ff.Fr) ff.Fr {
	eq := mle.NewSplitEq(point, st.numVars/2)
	var acc ff.Fr
	for _, i := range st.nonzero {
		var dot, t ff.Fr
		row := st.message[i]
		for j := range row {
			t.Mul(&row[j], &eq.Lo[j])
			dot.Add(&dot, &t)
		}
		t.Mul(&dot, &eq.Hi[i])
		acc.Add(&acc, &t)
	}
	eq.Release()
	return acc
}

// Open produces an evaluation opening at the given point. The transcript
// must already have absorbed the commitment root (the caller does this so
// multi-commitment protocols stay well-ordered).
func (st *ProverState) Open(point []ff.Fr, tr *transcript.Transcript) *Opening {
	tr.AppendFrs("pcs.point", point)
	rho := tr.ChallengeFrs("pcs.rho", st.rows)
	eq := mle.NewSplitEq(point, st.numVars/2)

	// Column-major combination: each worker owns a disjoint range of
	// output columns and walks the nonzero rows for it (a zero row adds
	// nothing), so the accumulation order per column is fixed regardless
	// of parallelism.
	combine := func(w []ff.Fr) []ff.Fr {
		u := make([]ff.Fr, st.cols)
		parallel.For(st.cols, 512, func(start, end int) {
			var t ff.Fr
			for _, i := range st.nonzero {
				row := st.message[i]
				for j := start; j < end; j++ {
					t.Mul(&w[i], &row[j])
					u[j].Add(&u[j], &t)
				}
			}
		})
		return u
	}
	op := &Opening{URand: combine(rho), UEq: combine(eq.Hi)}
	eq.Release()
	tr.AppendFrs("pcs.urand", op.URand)
	tr.AppendFrs("pcs.ueq", op.UEq)

	cwLen := st.cols * st.params.Blowup
	idxs := tr.ChallengeIndices("pcs.columns", st.params.Queries, cwLen)
	for _, j := range idxs {
		col := make([]ff.Fr, st.rows)
		for i := 0; i < st.rows; i++ {
			col[i] = st.codeword[i][j]
		}
		op.Columns = append(op.Columns, ColumnOpening{Index: j, Values: col, Path: st.tree.path(j)})
	}
	return op
}

// ErrOpening is returned when an opening fails verification.
var ErrOpening = errors.New("pcs: invalid opening")

// VerifyOpen checks an opening against the commitment and the claimed
// evaluation. The transcript must mirror the prover's.
func VerifyOpen(c *Commitment, point []ff.Fr, claim *ff.Fr, op *Opening, p Params, tr *transcript.Transcript) error {
	if len(point) != c.NumVars {
		return fmt.Errorf("%w: point has %d coords, want %d", ErrOpening, len(point), c.NumVars)
	}
	// Commit's layout, which Encode relies on: power-of-two rows and
	// columns splitting the variables.
	if c.Rows != 1<<(c.NumVars/2) || c.Cols != 1<<(c.NumVars-c.NumVars/2) {
		return fmt.Errorf("%w: %dx%d layout does not match %d variables", ErrOpening, c.Rows, c.Cols, c.NumVars)
	}
	if len(op.URand) != c.Cols || len(op.UEq) != c.Cols {
		return fmt.Errorf("%w: combined rows have wrong length", ErrOpening)
	}
	tr.AppendFrs("pcs.point", point)
	rho := tr.ChallengeFrs("pcs.rho", c.Rows)
	tr.AppendFrs("pcs.urand", op.URand)
	tr.AppendFrs("pcs.ueq", op.UEq)

	eq := mle.NewSplitEq(point, c.NumVars/2)
	defer eq.Release()

	// Consistency with the claimed evaluation: ⟨uEq, eq.Lo⟩ == claim.
	var got, t ff.Fr
	for j := range op.UEq {
		t.Mul(&op.UEq[j], &eq.Lo[j])
		got.Add(&got, &t)
	}
	if !got.Equal(claim) {
		return fmt.Errorf("%w: eq-row does not reproduce the claimed evaluation", ErrOpening)
	}

	// Encode both combined rows in rented scratch.
	cwLen := c.Cols * p.Blowup
	d, err := poly.Shared(cwLen)
	if err != nil {
		return err
	}
	encode := func(u []ff.Fr) []ff.Fr {
		cw := arena.Frs(d.N)
		d.Encode(u, cw)
		return cw
	}
	cwRand := encode(op.URand)
	cwEq := encode(op.UEq)
	defer arena.PutFrs(cwRand)
	defer arena.PutFrs(cwEq)

	idxs := tr.ChallengeIndices("pcs.columns", p.Queries, cwLen)
	if len(op.Columns) != len(idxs) {
		return fmt.Errorf("%w: %d columns opened, want %d", ErrOpening, len(op.Columns), len(idxs))
	}
	// One rented leaf-serialization buffer is reused across all spot
	// checks (the loop is sequential). Layout matches leafBytes: count,
	// then elements; verifyPath prepends the 0x00 leaf tag itself.
	leafScratch := arena.Bytes(8 + 32*c.Rows)
	defer arena.PutBytes(leafScratch)
	binary.LittleEndian.PutUint64(leafScratch[:8], uint64(c.Rows))
	for qi, j := range idxs {
		col := op.Columns[qi]
		if col.Index != j {
			return fmt.Errorf("%w: column %d opened, challenge was %d", ErrOpening, col.Index, j)
		}
		if len(col.Values) != c.Rows {
			return fmt.Errorf("%w: column height mismatch", ErrOpening)
		}
		for i := range col.Values {
			col.Values[i].PutBytes(leafScratch[8+32*i:])
		}
		if !verifyPath(c.Root, leafScratch, j, col.Path) {
			return fmt.Errorf("%w: bad Merkle path for column %d", ErrOpening, j)
		}
		// Σ_i ρ_i·col[i] == encode(uRand)[j] and likewise for eq weights.
		var sRand, sEq ff.Fr
		for i := range col.Values {
			t.Mul(&rho[i], &col.Values[i])
			sRand.Add(&sRand, &t)
			t.Mul(&eq.Hi[i], &col.Values[i])
			sEq.Add(&sEq, &t)
		}
		if !sRand.Equal(&cwRand[j]) {
			return fmt.Errorf("%w: proximity check failed at column %d", ErrOpening, j)
		}
		if !sEq.Equal(&cwEq[j]) {
			return fmt.Errorf("%w: consistency check failed at column %d", ErrOpening, j)
		}
	}
	return nil
}
