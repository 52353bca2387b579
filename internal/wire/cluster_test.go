package wire_test

import (
	"bytes"
	"testing"

	"zkvc/internal/wire"
)

func TestNodeAnnounceRoundTrip(t *testing.T) {
	a := &wire.NodeAnnounce{Name: "prover-1", URL: "http://10.0.0.7:8799", Workers: 8}
	raw := wire.EncodeNodeAnnounce(a)
	got, err := wire.DecodeNodeAnnounce(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip: got %+v, want %+v", got, a)
	}
	if again := wire.EncodeNodeAnnounce(got); !bytes.Equal(raw, again) {
		t.Fatal("re-encode is not canonical")
	}
}

// TestClusterMessagesStrictDecode pins the message-specific rejection
// cases: empty identities must fail (truncation, trailing bytes and
// wrong tags are TestStrictDecode's).
func TestClusterMessagesStrictDecode(t *testing.T) {
	cases := []struct {
		what string
		raw  []byte
	}{
		{"announce: empty name", wire.EncodeNodeAnnounce(&wire.NodeAnnounce{URL: "http://x"})},
		{"announce: empty URL", wire.EncodeNodeAnnounce(&wire.NodeAnnounce{Name: "n"})},
	}
	for _, c := range cases {
		if _, err := wire.DecodeNodeAnnounce(c.raw); err == nil {
			t.Errorf("%s: decoded without error", c.what)
		}
	}
}
