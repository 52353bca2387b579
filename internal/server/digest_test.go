package server_test

import (
	"context"
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/zkml"
)

// TestAttestationDigestsKnownAnswers pins the attestation digests to
// fixed hex values on fixed seeded inputs. Durable issued.log files hold
// these digests, so a change to either function — or to the wire
// encodings they hash — silently stops a restarted service from vouching
// for everything it issued before the upgrade. If a deliberate format
// change moves them, the issued log needs a migration, not a new value
// here. Wall-clock timings are zeroed first: they are part of the
// encodings but not of the fixture.
func TestAttestationDigestsKnownAnswers(t *testing.T) {
	rng := mrand.New(mrand.NewSource(101))
	x := zkvc.RandomMatrix(rng, 2, 3, 16)
	w := zkvc.RandomMatrix(rng, 3, 2, 16)
	for _, tc := range []struct {
		backend zkvc.Backend
		want    string
	}{
		{zkvc.Groth16, "48809e8095e977fa03b84ed36a18553c3b26ed0159575f96d390b2a8907243eb"},
		{zkvc.Spartan, "f671628ead20ecb5039fe05d2f71d0d440371e93e208d94d67e65ddf0de637ad"},
	} {
		eng := zkvc.NewLocal(tc.backend, zkvc.DefaultOptions())
		eng.Seed = 103
		proof, err := eng.ProveMatMul(context.Background(), x, w)
		if err != nil {
			t.Fatal(err)
		}
		proof.Timings = zkvc.Timings{}
		d := server.IssuedDigest(x, proof)
		if got := hex.EncodeToString(d[:]); got != tc.want {
			t.Errorf("IssuedDigest(%v) = %s, want %s", tc.backend, got, tc.want)
		}
	}

	cfg := tinyModelConfig(nn.MixerPooling)
	opts := zkml.DefaultOptions()
	opts.Seed = 109
	opts.ProveNonlinear = false
	rep, err := zkml.ProveTrace(cfg, capturedTrace(t, cfg, 107), opts)
	if err != nil {
		t.Fatal(err)
	}
	d := server.ReportDigest(zeroTimings(rep), "acme")
	if got, want := hex.EncodeToString(d[:]), "533f479d40edfbea3f06f825b42775a46e720dd2ccf59b36ef71a94bd966756b"; got != want {
		t.Errorf("ReportDigest = %s, want %s", got, want)
	}
}
