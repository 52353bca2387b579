package wire_test

import (
	"bytes"
	"errors"
	"testing"

	"zkvc"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

func TestVerifyModelRequestRoundTrip(t *testing.T) {
	_, _, rep := modelFixture(t, zkml.Spartan, 31)
	for _, mode := range []zkvc.VerifyMode{zkvc.VerifyPerOp, zkvc.VerifyAggregate} {
		req := &wire.VerifyModelRequest{Mode: mode, Report: rep}
		raw := wire.EncodeVerifyModelRequest(req)
		got, err := wire.DecodeVerifyModelRequest(raw)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if got.Mode != mode {
			t.Fatalf("mode %s decoded as %s", mode, got.Mode)
		}
		if !bytes.Equal(wire.EncodeReport(got.Report), wire.EncodeReport(rep)) {
			t.Fatalf("mode %s: report did not round-trip", mode)
		}
		if again := wire.EncodeVerifyModelRequest(got); !bytes.Equal(raw, again) {
			t.Fatalf("mode %s: encoding is not canonical", mode)
		}
		// The embedded report encodes byte-for-byte like TagReport (tag
		// and mode aside) — the property that makes the issued-log
		// digest of both verify dialects attest the same report.
		if !bytes.Equal(raw[7:], wire.EncodeReport(rep)[6:]) {
			t.Fatal("embedded report body diverges from EncodeReport")
		}
	}
}

func TestVerifyModelResponseRoundTrip(t *testing.T) {
	for _, resp := range []*wire.VerifyModelResponse{
		{OK: true, Mode: zkvc.VerifyAggregate},
		{OK: true, Mode: zkvc.VerifyPerOp},
		{Mode: zkvc.VerifyAggregate, Error: "verification failed: batched R1CS identity check fails"},
	} {
		raw := wire.EncodeVerifyModelResponse(resp)
		got, err := wire.DecodeVerifyModelResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *resp {
			t.Fatalf("round-trip changed %+v to %+v", resp, got)
		}
		if again := wire.EncodeVerifyModelResponse(got); !bytes.Equal(raw, again) {
			t.Fatal("encoding is not canonical")
		}
	}
}

// TestVerifyModelMessagesStrictDecode pins the message-specific rejection
// cases (truncation, trailing bytes and cross-tag decodes are
// TestStrictDecode's).
func TestVerifyModelMessagesStrictDecode(t *testing.T) {
	_, _, rep := modelFixture(t, zkml.Spartan, 33)
	req := wire.EncodeVerifyModelRequest(&wire.VerifyModelRequest{Mode: zkvc.VerifyAggregate, Report: rep})
	resp := wire.EncodeVerifyModelResponse(&wire.VerifyModelResponse{Mode: zkvc.VerifyPerOp, Error: "nope"})

	// Unknown mode bytes die in the decoder.
	badMode := append([]byte(nil), req...)
	badMode[6] = 0x7f
	if _, err := wire.DecodeVerifyModelRequest(badMode); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("request with unknown mode accepted: %v", err)
	}

	// A verdict must carry an error exactly when it fails.
	okWithError := append([]byte(nil), resp...)
	okWithError[6] = 1 // flip OK on a message that still carries an error blob
	if _, err := wire.DecodeVerifyModelResponse(okWithError); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("passing verdict with error text accepted: %v", err)
	}
	failNoError := wire.EncodeVerifyModelResponse(&wire.VerifyModelResponse{OK: true, Mode: zkvc.VerifyPerOp})
	failNoError[6] = 0
	if _, err := wire.DecodeVerifyModelResponse(failNoError); !errors.Is(err, wire.ErrDecode) {
		t.Fatalf("failing verdict without error text accepted: %v", err)
	}
}
