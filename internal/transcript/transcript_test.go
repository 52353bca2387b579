package transcript

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"zkvc/internal/ff"
)

func TestDeterministic(t *testing.T) {
	a, b := New("proto"), New("proto")
	a.Append("m", []byte("hello"))
	b.Append("m", []byte("hello"))
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if !ca.Equal(&cb) {
		t.Fatal("same transcript, different challenges")
	}
}

func TestDomainSeparation(t *testing.T) {
	a, b := New("proto-a"), New("proto-b")
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if ca.Equal(&cb) {
		t.Fatal("different protocols share challenges")
	}
}

func TestMessageBinding(t *testing.T) {
	a, b := New("p"), New("p")
	a.Append("m", []byte{1})
	b.Append("m", []byte{2})
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if ca.Equal(&cb) {
		t.Fatal("challenge ignores message content")
	}
}

func TestLabelBinding(t *testing.T) {
	a, b := New("p"), New("p")
	a.Append("x", []byte{1})
	b.Append("y", []byte{1})
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if ca.Equal(&cb) {
		t.Fatal("challenge ignores label")
	}
}

func TestLengthFraming(t *testing.T) {
	// ("ab","c") must differ from ("a","bc"): the length framing must
	// prevent concatenation ambiguity.
	a, b := New("p"), New("p")
	a.Append("ab", []byte("c"))
	b.Append("a", []byte("bc"))
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if ca.Equal(&cb) {
		t.Fatal("length framing broken: spliced messages collide")
	}
}

func TestSuccessiveChallengesDiffer(t *testing.T) {
	tr := New("p")
	c1 := tr.ChallengeFr("c")
	c2 := tr.ChallengeFr("c")
	if c1.Equal(&c2) {
		t.Fatal("squeeze does not advance state")
	}
}

func TestChallengeBytesLengths(t *testing.T) {
	tr := New("p")
	for _, n := range []int{1, 31, 32, 33, 64, 100} {
		got := tr.ChallengeBytes("c", n)
		if len(got) != n {
			t.Errorf("ChallengeBytes(%d) returned %d bytes", n, len(got))
		}
	}
}

func TestChallengeIndicesInBounds(t *testing.T) {
	tr := New("p")
	tr.Append("seed", []byte("s"))
	idx := tr.ChallengeIndices("q", 100, 17)
	if len(idx) != 100 {
		t.Fatalf("%d indices, want 100", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 17 {
			t.Fatalf("index %d out of [0,17)", i)
		}
	}
	// Degenerate bound must not loop forever or panic.
	one := tr.ChallengeIndices("q", 3, 1)
	for _, i := range one {
		if i != 0 {
			t.Fatal("bound-1 indices must be 0")
		}
	}
}

func TestAppendFrsOrderMatters(t *testing.T) {
	var x, y ff.Fr
	x.SetInt64(1)
	y.SetInt64(2)
	a, b := New("p"), New("p")
	a.AppendFrs("v", []ff.Fr{x, y})
	b.AppendFrs("v", []ff.Fr{y, x})
	ca, cb := a.ChallengeFr("c"), b.ChallengeFr("c")
	if ca.Equal(&cb) {
		t.Fatal("vector order ignored")
	}
}

// TestQuickNoCollisions property: distinct single messages never produce
// the same first challenge (would require a SHA-256 collision).
func TestQuickNoCollisions(t *testing.T) {
	f := func(m1, m2 []byte) bool {
		if bytes.Equal(m1, m2) {
			return true
		}
		a, b := New("q"), New("q")
		a.Append("m", m1)
		b.Append("m", m2)
		ca, cb := a.ChallengeBytes("c", 32), b.ChallengeBytes("c", 32)
		return !bytes.Equal(ca, cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUint64Framing property: AppendUint64 binds the exact value.
func TestQuickUint64Framing(t *testing.T) {
	f := func(u, v uint64) bool {
		if u == v {
			return true
		}
		a, b := New("q"), New("q")
		a.AppendUint64("n", u)
		b.AppendUint64("n", v)
		ca, cb := a.ChallengeBytes("c", 16), b.ChallengeBytes("c", 16)
		return !bytes.Equal(ca, cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// chunkedMsg is an Encoder that writes its bytes seven at a time.
type chunkedMsg []byte

func (m chunkedMsg) EncodedLen() int { return len(m) }

func (m chunkedMsg) WriteCanonical(w io.Writer) {
	for i := 0; i < len(m); i += 7 {
		w.Write(m[i:min(len(m), i+7)])
	}
}

// TestAppendFraming pins both absorb paths to the documented state
// update H(state ‖ len(label) ‖ label ‖ len(data) ‖ data), on either side
// of the stack buffer for data and for labels, and AppendFrom to Append
// on the same bytes.
func TestAppendFraming(t *testing.T) {
	for _, label := range []string{"x", strings.Repeat("l", 200)} {
		for _, n := range []int{0, 1, 100, 112, 113, 5000} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(3*i + n)
			}
			a, b := New("p"), New("p")
			var want [32]byte
			{
				h := sha256.New()
				h.Write(a.state[:])
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(label))))
				h.Write([]byte(label))
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
				h.Write(data)
				h.Sum(want[:0])
			}
			a.Append(label, data)
			b.AppendFrom(label, chunkedMsg(data))
			if a.state != want || b.state != want {
				t.Errorf("label %d bytes, data %d bytes: Append %x, AppendFrom %x, want %x", len(label), n, a.state[:4], b.state[:4], want[:4])
			}
		}
	}
}
