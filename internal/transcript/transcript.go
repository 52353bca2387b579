// Package transcript implements a Fiat–Shamir transcript over SHA-256,
// turning the interactive protocols in this repository (sumcheck, PCS
// openings, CRPC challenge derivation) into non-interactive ones.
package transcript

import (
	"crypto/sha256"
	"encoding/binary"
	"io"

	"zkvc/internal/ff"
)

// Transcript accumulates protocol messages and derives challenges. The
// state after each message is H(state ‖ len(label) ‖ label ‖ data), so the
// challenge stream binds every prior message and label.
//
// Absorbs and squeezes are allocation-free on the hot path: messages are
// assembled in a fixed stack buffer and hashed with sha256.Sum256 (the
// digest is bit-identical to the streaming sha256.New construction, which
// remains as the fallback for oversized labels/data).
type Transcript struct {
	state   [32]byte
	counter uint64
}

// New returns a transcript domain-separated by the protocol label.
func New(label string) *Transcript {
	t := &Transcript{}
	t.Append("protocol", []byte(label))
	return t
}

// absorbBufSize fits state ‖ len ‖ label ‖ len ‖ data for every message
// the protocols in this repo absorb (labels are short, data is ≤48 bytes
// on the per-element paths). Longer messages fall back to streaming.
const absorbBufSize = 160

// Append absorbs labeled bytes.
func (t *Transcript) Append(label string, data []byte) {
	var buf [absorbBufSize]byte
	msg := t.header(buf[:0], label, len(data))
	if len(msg)+len(data) <= absorbBufSize {
		t.state = sha256.Sum256(append(msg, data...))
		return
	}
	h := sha256.New()
	h.Write(msg)
	h.Write(data)
	h.Sum(t.state[:0])
}

// Encoder is a long message that the transcript hashes as it is encoded
// instead of building it first: EncodedLen is the length of what
// WriteCanonical writes.
type Encoder interface {
	EncodedLen() int
	WriteCanonical(io.Writer)
}

// AppendFrom absorbs m's canonical encoding, exactly as Append absorbs
// the same bytes from one slice.
func (t *Transcript) AppendFrom(label string, m Encoder) {
	var buf [absorbBufSize]byte
	h := sha256.New()
	h.Write(t.header(buf[:0], label, m.EncodedLen()))
	m.WriteCanonical(h)
	h.Sum(t.state[:0])
}

// header appends to dst the framing that precedes every message of n
// bytes: state ‖ len(label) ‖ label ‖ n.
func (t *Transcript) header(dst []byte, label string, n int) []byte {
	dst = append(dst, t.state[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(label)))
	dst = append(dst, label...)
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// AppendFr absorbs a field element.
func (t *Transcript) AppendFr(label string, x *ff.Fr) {
	b := x.Bytes()
	t.Append(label, b[:])
}

// AppendFrs absorbs a field-element vector.
func (t *Transcript) AppendFrs(label string, xs []ff.Fr) {
	for i := range xs {
		t.AppendFr(label, &xs[i])
	}
}

// AppendUint64 absorbs an integer.
func (t *Transcript) AppendUint64(label string, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.Append(label, b[:])
}

// squeeze fills out with pseudorandom bytes bound to the current state,
// then folds the squeeze back into the state so later challenges differ.
// It writes ⌈len(out)/32⌉ SHA-256 blocks without allocating.
func (t *Transcript) squeeze(label string, out []byte) {
	filled := 0
	for filled < len(out) {
		var digest [32]byte
		if 32+len(label)+8 <= absorbBufSize {
			var buf [absorbBufSize]byte
			n := copy(buf[:], t.state[:])
			n += copy(buf[n:], label)
			binary.LittleEndian.PutUint64(buf[n:], t.counter)
			n += 8
			t.counter++
			digest = sha256.Sum256(buf[:n])
		} else {
			h := sha256.New()
			h.Write(t.state[:])
			h.Write([]byte(label))
			var c [8]byte
			binary.LittleEndian.PutUint64(c[:], t.counter)
			t.counter++
			h.Write(c[:])
			h.Sum(digest[:0])
		}
		filled += copy(out[filled:], digest[:])
	}
	t.Append("squeeze", []byte(label))
}

// ChallengeBytes squeezes n pseudorandom bytes bound to the current state.
func (t *Transcript) ChallengeBytes(label string, n int) []byte {
	// The squeeze pads to whole 32-byte blocks exactly like the previous
	// h.Sum-append construction, so the byte stream is unchanged.
	blocks := (n + 31) / 32 * 32
	out := make([]byte, blocks)
	t.squeeze(label, out)
	return out[:n]
}

// ChallengeFr squeezes a field element. 48 bytes are reduced mod r, keeping
// the modular bias below 2^{-128}.
func (t *Transcript) ChallengeFr(label string) ff.Fr {
	var raw [64]byte // two SHA-256 blocks; the reduction reads the first 48
	t.squeeze(label, raw[:48])
	var x ff.Fr
	x.SetBytesWide(raw[:48])
	return x
}

// ChallengeFrs squeezes a vector of field elements.
func (t *Transcript) ChallengeFrs(label string, n int) []ff.Fr {
	out := make([]ff.Fr, n)
	for i := range out {
		out[i] = t.ChallengeFr(label)
	}
	return out
}

// ChallengeIndices squeezes n indices in [0, bound), used for PCS column
// spot checks.
func (t *Transcript) ChallengeIndices(label string, n, bound int) []int {
	out := make([]int, n)
	var raw [32]byte
	for i := range out {
		t.squeeze(label, raw[:8])
		out[i] = int(binary.LittleEndian.Uint64(raw[:8]) % uint64(bound))
	}
	return out
}
