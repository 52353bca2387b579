package wire_test

// Wire coverage for the OpConv2D trace encoding and the convolutional
// config section: round trips stay canonical, and the strict decoder
// rejects conv geometry that disagrees with the lowered A/N/B product —
// a relabeled or resized conv op can never decode into a valid request.

import (
	"bytes"
	mrand "math/rand"
	"testing"

	"zkvc/internal/nn"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// cnnFixture builds one captured tiny CNN trace plus its proved report.
func cnnFixture(t *testing.T, backend zkml.Backend, seed int64) (nn.Config, *nn.Trace, *zkml.Report) {
	t.Helper()
	cfg := nn.TinyCNNConfig("fuzz-cnn")
	model, err := nn.NewModel(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(seed+1))), &trace)
	opts := zkml.DefaultOptions()
	opts.Backend = backend
	opts.Seed = seed
	rep, err := zkml.ProveTrace(cfg, &trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, &trace, rep
}

// TestCNNProveModelRequestRoundTrip pins the conv request format: the
// config's conv section and the op's geometry fields survive, the
// encoding is canonical, and the decoded trace still proves.
func TestCNNProveModelRequestRoundTrip(t *testing.T) {
	cfg, trace, _ := cnnFixture(t, zkml.Spartan, 31)
	req := &wire.ProveModelRequest{Backend: zkml.Spartan, Cfg: cfg, Trace: trace}
	raw := wire.EncodeProveModelRequest(req)
	back, err := wire.DecodeProveModelRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Cfg.IsCNN() || len(back.Cfg.Convs) != len(cfg.Convs) ||
		back.Cfg.Convs[0] != cfg.Convs[0] ||
		back.Cfg.InputC != cfg.InputC || back.Cfg.InputH != cfg.InputH || back.Cfg.InputW != cfg.InputW {
		t.Fatalf("conv config changed across round trip: %+v", back.Cfg)
	}
	for i, op := range back.Trace.Ops {
		want := trace.Ops[i]
		if op.Kind != want.Kind || op.KH != want.KH || op.KW != want.KW ||
			op.Stride != want.Stride || op.Pad != want.Pad ||
			op.CIn != want.CIn || op.COut != want.COut ||
			op.InH != want.InH || op.InW != want.InW {
			t.Fatalf("op %d geometry changed: %+v vs %+v", i, op, want)
		}
	}
	if again := wire.EncodeProveModelRequest(back); !bytes.Equal(raw, again) {
		t.Fatal("re-encoding is not canonical")
	}
	opts := zkml.DefaultOptions()
	opts.Seed = 31
	if _, err := zkml.ProveTrace(back.Cfg, back.Trace, opts); err != nil {
		t.Fatalf("decoded CNN trace does not prove: %v", err)
	}
}

// TestCNNReportRoundTrip pins the conv OpProof encoding on both
// backends: the decoded report verifies and the conv op keeps its kind.
func TestCNNReportRoundTrip(t *testing.T) {
	for _, backend := range []zkml.Backend{zkml.Spartan, zkml.Groth16} {
		_, _, rep := cnnFixture(t, backend, 33)
		raw := wire.EncodeReport(rep)
		back, err := wire.DecodeReport(raw)
		if err != nil {
			t.Fatalf("%v: decode: %v", backend, err)
		}
		found := false
		for i := range back.Ops {
			if back.Ops[i].Kind == nn.OpConv2D {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v: decoded report lost the conv2d op kind", backend)
		}
		if err := zkml.VerifyReport(back, zkml.DefaultOptions()); err != nil {
			t.Fatalf("%v: decoded report does not verify: %v", backend, err)
		}
		if again := wire.EncodeReport(back); !bytes.Equal(raw, again) {
			t.Fatalf("%v: re-encoding is not canonical", backend)
		}
	}
}

// TestDecodeRejectsBadConvGeometry walks the conv cross-checks: any
// geometry that disagrees with the lowered A/N/B product, exceeds the
// padded input, or is degenerate must fail strict decode.
func TestDecodeRejectsBadConvGeometry(t *testing.T) {
	cfg, trace, _ := cnnFixture(t, zkml.Spartan, 35)
	convIdx := -1
	for i := range trace.Ops {
		if trace.Ops[i].Kind == nn.OpConv2D {
			convIdx = i
		}
	}
	if convIdx < 0 {
		t.Fatal("fixture has no conv op")
	}
	cases := []struct {
		name   string
		mutate func(*nn.Op)
	}{
		{"kernel height off by one", func(op *nn.Op) { op.KH++ }},
		{"kernel exceeds padded input", func(op *nn.Op) { op.KH, op.KW = 99, 99 }},
		{"stride breaks output size", func(op *nn.Op) { op.Stride = 2 }},
		{"channel count off", func(op *nn.Op) { op.CIn = 3 }},
		{"cout disagrees with B", func(op *nn.Op) { op.COut++ }},
		{"zero kernel", func(op *nn.Op) { op.KH, op.KW = 0, 0 }},
		{"zero stride", func(op *nn.Op) { op.Stride = 0 }},
		{"relabel as matmul keeps conv bytes out", func(op *nn.Op) {
			// A conv op downgraded to a plain matmul drops its geometry
			// from the encoding — decode succeeds but produces different
			// canonical bytes, which the issued-report policy rejects.
			op.Kind = nn.OpMatMul
		}},
	}
	goodRaw := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
		Backend: zkml.Spartan, Cfg: cfg, Trace: trace,
	})
	for _, tc := range cases {
		bad := nn.Trace{Capture: true, Ops: append([]nn.Op(nil), trace.Ops...)}
		tc.mutate(&bad.Ops[convIdx])
		raw := wire.EncodeProveModelRequest(&wire.ProveModelRequest{
			Backend: zkml.Spartan, Cfg: cfg, Trace: &bad,
		})
		if tc.name == "relabel as matmul keeps conv bytes out" {
			if bytes.Equal(raw, goodRaw) {
				t.Fatalf("%s: relabeled trace encodes to identical bytes", tc.name)
			}
			continue
		}
		if _, err := wire.DecodeProveModelRequest(raw); err == nil {
			t.Errorf("%s: corrupted conv geometry decoded", tc.name)
		}
	}
}
