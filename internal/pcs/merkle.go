// Package pcs implements a transparent, hash-based polynomial commitment
// for multilinear polynomials in the Ligero/Brakedown style: the
// coefficient (evaluation) vector is arranged as a matrix, rows are
// Reed–Solomon encoded with the scalar-field NTT, and columns are committed
// with a SHA-256 Merkle tree. Evaluation openings send two combined rows
// (a random combination for proximity and the eq-weighted combination for
// consistency) plus spot-checked columns.
package pcs

import (
	"bytes"
	"crypto/sha256"

	"zkvc/internal/arena"
	"zkvc/internal/parallel"
)

// hashGrain is the number of SHA-256 invocations a borrowed worker is
// handed per chunk when building the tree.
const hashGrain = 64

// merkleTree is a binary SHA-256 tree over an arbitrary number of leaves
// (padded to a power of two with the empty hash).
type merkleTree struct {
	layers [][][32]byte // layers[0] = leaf hashes, last = root
}

func hashLeaf(data []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00}) // domain separation: leaf
	h.Write(data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func hashNode(l, r [32]byte) [32]byte {
	// 0x01 domain separation tag ‖ left ‖ right, hashed from a stack
	// buffer (bit-identical to the streaming construction, no hasher
	// allocation per node).
	var buf [65]byte
	buf[0] = 0x01
	copy(buf[1:], l[:])
	copy(buf[33:], r[:])
	return sha256.Sum256(buf[:])
}

// newMerkleTreeHashed builds the tree over an already-hashed leaf layer
// whose length must be a power of two, taking ownership of the (rented)
// slice: release() returns every layer to the arena. Each internal layer
// fans out across the shared worker budget; every slot is written by
// exactly one chunk, so the tree is identical at any parallelism level.
func newMerkleTreeHashed(layer [][32]byte) *merkleTree {
	t := &merkleTree{layers: [][][32]byte{layer}}
	for len(layer) > 1 {
		next := arena.Hashes(len(layer) / 2)
		parallel.For(len(next), hashGrain, func(start, end int) {
			for i := start; i < end; i++ {
				next[i] = hashNode(layer[2*i], layer[2*i+1])
			}
		})
		t.layers = append(t.layers, next)
		layer = next
	}
	return t
}

// release returns all layers to the arena; the tree (and any paths not
// yet copied out) must not be used afterwards.
func (t *merkleTree) release() {
	for _, l := range t.layers {
		arena.PutHashes(l)
	}
	t.layers = nil
}

func (t *merkleTree) root() [32]byte { return t.layers[len(t.layers)-1][0] }

// path returns the sibling hashes from leaf i to the root. The path
// escapes into openings, so it is plainly allocated (exact size).
func (t *merkleTree) path(i int) [][32]byte {
	out := make([][32]byte, 0, len(t.layers)-1)
	for lvl := 0; lvl < len(t.layers)-1; lvl++ {
		out = append(out, t.layers[lvl][i^1])
		i >>= 1
	}
	return out
}

// verifyPath checks a leaf against a root.
func verifyPath(root [32]byte, leafData []byte, index int, path [][32]byte) bool {
	h := hashLeaf(leafData)
	for _, sib := range path {
		if index&1 == 0 {
			h = hashNode(h, sib)
		} else {
			h = hashNode(sib, h)
		}
		index >>= 1
	}
	return bytes.Equal(h[:], root[:])
}
