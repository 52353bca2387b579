package wire_test

import (
	"bytes"
	"testing"

	"zkvc/internal/wire"
)

func TestIssuedRecordRoundTrip(t *testing.T) {
	for _, r := range []wire.IssuedRecord{
		{Seq: 0, Kind: wire.IssuedAdd, Digest: [32]byte{1, 2, 3}, CRSTag: 0},
		{Seq: 7, Kind: wire.IssuedAdd, Prev: [32]byte{0xaa}, Digest: [32]byte{4}, CRSTag: 1 << 40},
		{Seq: 8, Kind: wire.IssuedTombstone, Prev: [32]byte{0xbb}, Digest: [32]byte{4}},
	} {
		raw := wire.EncodeIssuedRecord(&r)
		got, err := wire.DecodeIssuedRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		if *got != r {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
		if again := wire.EncodeIssuedRecord(got); !bytes.Equal(raw, again) {
			t.Fatal("re-encode is not canonical")
		}
	}
}

func TestAttestationUpdateRoundTrip(t *testing.T) {
	for _, u := range []wire.AttestationUpdate{
		{Node: "prover-1", Added: [][32]byte{{1}, {2}}},
		{Node: "prover-2", Removed: [][32]byte{{3}}},
		{Node: "prover-3", Added: [][32]byte{{4}}, Removed: [][32]byte{{5}, {6}}},
	} {
		raw := wire.EncodeAttestationUpdate(&u)
		got, err := wire.DecodeAttestationUpdate(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != u.Node || len(got.Added) != len(u.Added) || len(got.Removed) != len(u.Removed) {
			t.Fatalf("round trip: got %+v, want %+v", got, u)
		}
		for i := range u.Added {
			if got.Added[i] != u.Added[i] {
				t.Fatalf("added[%d]: got %x, want %x", i, got.Added[i], u.Added[i])
			}
		}
		for i := range u.Removed {
			if got.Removed[i] != u.Removed[i] {
				t.Fatalf("removed[%d]: got %x, want %x", i, got.Removed[i], u.Removed[i])
			}
		}
		if again := wire.EncodeAttestationUpdate(got); !bytes.Equal(raw, again) {
			t.Fatal("re-encode is not canonical")
		}
	}
}

// TestIssuedMessagesStrictDecode pins the message-specific rejection
// cases for the issued-log record and the replication update: bad kinds,
// out-of-range sequences, empty identities and empty updates must all
// fail — these bytes come off disk after a crash and off the
// unauthenticated cluster surface, so nothing malformed may decode.
// (Truncation, trailing bytes and wrong tags are TestStrictDecode's.)
func TestIssuedMessagesStrictDecode(t *testing.T) {
	rec := wire.EncodeIssuedRecord(&wire.IssuedRecord{Seq: 1, Kind: wire.IssuedAdd, Digest: [32]byte{9}, CRSTag: 2})

	badKind := append([]byte(nil), rec...)
	badKind[len(badKind)-73] = 2 // kind byte: 8 (tag) + 32 + 32 + 1 from the end

	badSeq := append([]byte(nil), rec...)
	badSeq[len(badSeq)-81] = 0xff // high byte of Seq → sign bit set

	cases := []struct {
		what string
		raw  []byte
	}{
		{"record: bad kind", badKind},
		{"record: out-of-range seq", badSeq},
		{"update: empty node", wire.EncodeAttestationUpdate(&wire.AttestationUpdate{Added: [][32]byte{{1}}})},
		{"update: no digests", wire.EncodeAttestationUpdate(&wire.AttestationUpdate{Node: "n"})},
	}
	for _, c := range cases {
		var err error
		if bytes.HasPrefix([]byte(c.what), []byte("record")) {
			_, err = wire.DecodeIssuedRecord(c.raw)
		} else {
			_, err = wire.DecodeAttestationUpdate(c.raw)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", c.what)
		}
	}
}
