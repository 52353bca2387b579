package wire_test

import (
	"bytes"
	"errors"
	"testing"

	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// TestJobSubmitRequestRoundTrip pins the async submission format: the
// embedded model request survives with TTL intact and the encoding is
// canonical.
func TestJobSubmitRequestRoundTrip(t *testing.T) {
	cfg, trace, _ := modelFixture(t, zkml.Spartan, 31)
	req := &wire.JobSubmitRequest{
		TTLSeconds: 3600,
		Model: &wire.ProveModelRequest{
			Backend: zkml.Groth16, ProveNonlinear: true, Cfg: cfg, Trace: trace,
		},
	}
	raw := wire.EncodeJobSubmitRequest(req)
	back, err := wire.DecodeJobSubmitRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.TTLSeconds != req.TTLSeconds {
		t.Fatalf("TTL changed: got %d, want %d", back.TTLSeconds, req.TTLSeconds)
	}
	if back.Model.Backend != req.Model.Backend || back.Model.ProveNonlinear != req.Model.ProveNonlinear {
		t.Fatal("model request scalar fields changed")
	}
	if len(back.Model.Trace.Ops) != len(req.Model.Trace.Ops) {
		t.Fatalf("trace op count changed: got %d, want %d", len(back.Model.Trace.Ops), len(req.Model.Trace.Ops))
	}
	if again := wire.EncodeJobSubmitRequest(back); !bytes.Equal(raw, again) {
		t.Fatal("re-encoding is not canonical")
	}
}

// TestJobStatusRoundTrip covers every state, including the ID-less
// rejection status a 429 body carries.
func TestJobStatusRoundTrip(t *testing.T) {
	for _, s := range []wire.JobStatus{
		{ID: "a1b2", State: wire.JobQueued, TotalOps: 9, QueuePos: 4},
		{ID: "a1b2", State: wire.JobRunning, TotalOps: 9, CompletedOps: 3},
		{ID: "a1b2", State: wire.JobDone, TotalOps: 9, CompletedOps: 9},
		{ID: "a1b2", State: wire.JobFailed, TotalOps: 9, CompletedOps: 2, Error: "prover crashed"},
		{ID: "a1b2", State: wire.JobCanceled, Error: "job expired"},
		{State: wire.JobRejected, QueuePos: 17, RetryAfterSeconds: 2, Error: "queue full"},
	} {
		raw := wire.EncodeJobStatus(&s)
		got, err := wire.DecodeJobStatus(raw)
		if err != nil {
			t.Fatalf("state %d: %v", s.State, err)
		}
		if *got != s {
			t.Fatalf("round trip: got %+v, want %+v", got, s)
		}
		if again := wire.EncodeJobStatus(got); !bytes.Equal(raw, again) {
			t.Fatalf("state %d: re-encode is not canonical", s.State)
		}
	}
}

// TestJournalRecordRoundTrip pins the journal entry format.
func TestJournalRecordRoundTrip(t *testing.T) {
	rec := &wire.JournalRecord{
		Seq:     3,
		Kind:    wire.JournalOp,
		Payload: []byte("opaque frame bytes"),
	}
	for i := range rec.Prev {
		rec.Prev[i] = byte(i)
	}
	raw := wire.EncodeJournalRecord(rec)
	got, err := wire.DecodeJournalRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != rec.Seq || got.Kind != rec.Kind || got.Prev != rec.Prev || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip: got %+v, want %+v", got, rec)
	}
	if again := wire.EncodeJournalRecord(got); !bytes.Equal(raw, again) {
		t.Fatal("re-encode is not canonical")
	}
}

// TestJobManifestRoundTrip pins the journal manifest, the remaining
// job message.
func TestJobManifestRoundTrip(t *testing.T) {
	m := &wire.JobManifest{ID: "a1b2c3", Tenant: "acme", CreatedUnix: 1700000000, DeadlineUnix: 1700003600}
	raw := wire.EncodeJobManifest(m)
	gotM, err := wire.DecodeJobManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *gotM != *m {
		t.Fatalf("round trip: got %+v, want %+v", gotM, m)
	}
	if again := wire.EncodeJobManifest(gotM); !bytes.Equal(raw, again) {
		t.Fatal("manifest re-encode is not canonical")
	}
}

// TestJobMessagesStrictDecode pins the message-specific rejection cases
// for the job family: inconsistent states, bad enum values and empty
// identities all fail with ErrDecode (truncation, trailing bytes and
// wrong tags are TestStrictDecode's).
func TestJobMessagesStrictDecode(t *testing.T) {
	status := wire.EncodeJobStatus(&wire.JobStatus{ID: "a", State: wire.JobRunning, TotalOps: 5, CompletedOps: 2})
	record := wire.EncodeJournalRecord(&wire.JournalRecord{Seq: 1, Kind: wire.JournalHeader, Payload: []byte("x")})

	cases := []struct {
		what string
		dec  func([]byte) error
		raw  []byte
	}{
		{"status: admitted without ID", decStatus, wire.EncodeJobStatus(&wire.JobStatus{State: wire.JobRunning})},
		{"status: rejected with ID", decStatus, wire.EncodeJobStatus(&wire.JobStatus{ID: "a", State: wire.JobRejected})},
		{"status: completed > total", decStatus, wire.EncodeJobStatus(&wire.JobStatus{ID: "a", State: wire.JobRunning, TotalOps: 2, CompletedOps: 3})},
		{"manifest: empty ID", decManifest, wire.EncodeJobManifest(&wire.JobManifest{Tenant: "t"})},
	}
	for _, c := range cases {
		if err := c.dec(c.raw); err == nil {
			t.Errorf("%s: decoded without error", c.what)
		} else if !errors.Is(err, wire.ErrDecode) {
			t.Errorf("%s: error %v does not wrap ErrDecode", c.what, err)
		}
	}

	// Bad enum values: patch the state / kind byte of valid messages.
	bad := append([]byte(nil), status...)
	bad[wire.HeaderLen+4+1] = 9 // state byte sits after the 4-byte ID length + 1-byte ID
	if err := decStatus(bad); err == nil {
		t.Error("status with state 9 decoded")
	}
	bad = append([]byte(nil), record...)
	bad[wire.HeaderLen+4] = 9 // kind byte sits after the 4-byte seq
	if err := decRecord(bad); err == nil {
		t.Error("record with kind 9 decoded")
	}
}

func decStatus(b []byte) error   { _, err := wire.DecodeJobStatus(b); return err }
func decRecord(b []byte) error   { _, err := wire.DecodeJournalRecord(b); return err }
func decManifest(b []byte) error { _, err := wire.DecodeJobManifest(b); return err }
