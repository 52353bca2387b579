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

func TestNodeHeartbeatRoundTrip(t *testing.T) {
	for _, h := range []wire.NodeHeartbeat{
		{Name: "prover-1", QueueUnits: 0, Draining: false},
		{Name: "prover-2", QueueUnits: 12345, Draining: true},
		{Name: "prover-3", QueueUnits: 7, DiskBytes: 1 << 30, MemBytes: 512 << 20},
	} {
		raw := wire.EncodeNodeHeartbeat(&h)
		got, err := wire.DecodeNodeHeartbeat(raw)
		if err != nil {
			t.Fatal(err)
		}
		if *got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
		if again := wire.EncodeNodeHeartbeat(got); !bytes.Equal(raw, again) {
			t.Fatal("re-encode is not canonical")
		}
	}
}

// TestClusterMessagesStrictDecode pins the message-specific rejection
// cases: empty identities, out-of-range values and bad flags must all
// fail (truncation, trailing bytes and wrong tags are TestStrictDecode's).
func TestClusterMessagesStrictDecode(t *testing.T) {
	heartbeat := wire.EncodeNodeHeartbeat(&wire.NodeHeartbeat{Name: "n", QueueUnits: 3, Draining: true})

	cases := []struct {
		what string
		raw  []byte
	}{
		{"announce: empty name", wire.EncodeNodeAnnounce(&wire.NodeAnnounce{URL: "http://x"})},
		{"announce: empty URL", wire.EncodeNodeAnnounce(&wire.NodeAnnounce{Name: "n"})},
		{"heartbeat: empty name", wire.EncodeNodeHeartbeat(&wire.NodeHeartbeat{QueueUnits: 1})},
	}
	for _, c := range cases {
		var err error
		if bytes.HasPrefix([]byte(c.what), []byte("announce")) {
			_, err = wire.DecodeNodeAnnounce(c.raw)
		} else {
			_, err = wire.DecodeNodeHeartbeat(c.raw)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", c.what)
		}
	}

	// Bad draining flag: patch the flag byte (17th from the end — the
	// disk and memory u64 gauges follow it).
	bad := append([]byte(nil), heartbeat...)
	bad[len(bad)-17] = 2
	if _, err := wire.DecodeNodeHeartbeat(bad); err == nil {
		t.Error("heartbeat with draining flag 2 decoded")
	}

	// Negative / overflowing queue units: patch the u64 after the name.
	bad = append([]byte(nil), heartbeat...)
	bad[len(bad)-25] = 0xff // high byte of QueueUnits → sign bit set
	if _, err := wire.DecodeNodeHeartbeat(bad); err == nil {
		t.Error("heartbeat with out-of-range queue units decoded")
	}

	// Overflowing disk gauge: patch the high byte of DiskBytes.
	bad = append([]byte(nil), heartbeat...)
	bad[len(bad)-16] = 0xff
	if _, err := wire.DecodeNodeHeartbeat(bad); err == nil {
		t.Error("heartbeat with out-of-range disk bytes decoded")
	}
}
