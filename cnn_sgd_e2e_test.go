package zkvc_test

// End-to-end coverage for the PR10 workloads: the MNIST-scale CNN
// proved through the model pipeline (sync service, async jobs, a
// cluster), byte-identical across engines and parallelism levels on
// both backends, and one verifiable SGD fine-tuning step whose
// tampered weight-update op is rejected.

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"net/http/httptest"
	"testing"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/ff"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

const cnnSeed = 123

// cnnModelRequest captures one CNNMNIST forward pass. Nonlinear proving
// stays off: the lowered conv products are the circuits under test, and
// the full-size GELU grids would dominate the budget without adding
// coverage (the conformance CNN fixture proves them at tiny shapes).
func cnnModelRequest(t *testing.T, backend zkvc.Backend) *zkvc.ModelRequest {
	t.Helper()
	cfg := zkvc.CNNMNIST()
	model, err := zkvc.NewModel(cfg, cnnSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(cnnSeed+1))), &trace)
	return &zkvc.ModelRequest{Backend: backend, Cfg: cfg, Trace: &trace}
}

// cnnNode spins up one proving node seeded like the local reference.
func cnnNode(t *testing.T, backend zkvc.Backend) string {
	t.Helper()
	cfg := server.DefaultConfig()
	cfg.Backend = backend
	cfg.Seed = cnnSeed
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func proveCNN(t *testing.T, eng zkvc.Engine, req *zkvc.ModelRequest) *zkvc.Report {
	t.Helper()
	rep, err := eng.ProveModel(context.Background(), req).Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCNNModelParallelByteIdentity is the acceptance grid: the CNNMNIST
// trace proved locally and through /v1/prove/model at parallelism 1, 2
// and 4, on both backends — every report byte-identical to the
// sequential local reference, and verifying.
func TestCNNModelParallelByteIdentity(t *testing.T) {
	defer zkvc.SetParallelism(0)
	ctx := context.Background()
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			req := cnnModelRequest(t, backend)
			local := zkvc.NewLocal(backend, zkvc.DefaultOptions())
			local.Seed = cnnSeed
			remote := server.NewClient(cnnNode(t, backend))

			var ref []byte
			for _, par := range []int{1, 2, 4} {
				zkvc.SetParallelism(par)
				lrep := proveCNN(t, local, req)
				if par == 1 {
					ref = canonicalReport(lrep)
					if err := local.VerifyModel(ctx, lrep); err != nil {
						t.Fatalf("VerifyModel: %v", err)
					}
				} else if !bytes.Equal(ref, canonicalReport(lrep)) {
					t.Fatalf("local CNN report at parallelism %d differs from sequential", par)
				}
				srep := proveCNN(t, remote, req)
				if !bytes.Equal(ref, canonicalReport(srep)) {
					t.Fatalf("service CNN report at parallelism %d differs from local", par)
				}
			}
		})
	}
}

// TestCNNModelAsyncClusterParallel drives the same CNNMNIST trace
// through the durable-job API and a two-node cluster (Spartan — the
// backend grid is covered above), verifies on every engine, and pins byte identity against the local reference.
func TestCNNModelAsyncClusterParallel(t *testing.T) {
	ctx := context.Background()
	backend := zkvc.Spartan
	req := cnnModelRequest(t, backend)

	local := zkvc.NewLocal(backend, zkvc.DefaultOptions())
	local.Seed = cnnSeed
	ref := canonicalReport(proveCNN(t, local, req))

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{cnnNode(t, backend), cnnNode(t, backend)}
	coord, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		front.Close()
		coord.Close()
	})

	engines := []namedEngine{
		{"async", server.NewAsyncClient(cnnNode(t, backend))},
		{"cluster", cluster.NewEngine(front.URL)},
	}
	for _, ne := range engines {
		rep := proveCNN(t, ne.eng, req)
		if !bytes.Equal(ref, canonicalReport(rep)) {
			t.Fatalf("%s CNN report differs from local at equal seeds", ne.name)
		}
		if err := ne.eng.VerifyModel(ctx, rep); err != nil {
			t.Fatalf("%s VerifyModel: %v", ne.name, err)
		}
	}
}

// sgdModelRequest records one fine-tuning step on the tiny CNN.
func sgdModelRequest(t *testing.T, backend zkvc.Backend) (*zkvc.ModelRequest, *zkvc.SGDStep) {
	t.Helper()
	cfg := nn.TinyCNNConfig("sgd-e2e")
	model, err := zkvc.NewModel(cfg, cnnSeed)
	if err != nil {
		t.Fatal(err)
	}
	x := model.RandomInput(mrand.New(mrand.NewSource(cnnSeed + 2)))
	step, err := zkvc.TraceSGDStep(model, x, 1, cfg.Fixed.Scale()/8)
	if err != nil {
		t.Fatal(err)
	}
	return &zkvc.ModelRequest{Backend: backend, ProveNonlinear: true, Cfg: cfg, Trace: step.Trace}, step
}

// TestSGDStepProvesAndTamperedUpdateRejected proves one recorded SGD
// step on both backends, locally and through the service, and then
// flips the weight-update op's public input: VerifyModel must reject
// with ErrVerification, and the remote policy must reject the
// altered report too.
func TestSGDStepProvesAndTamperedUpdateRejected(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			req, _ := sgdModelRequest(t, backend)
			local := zkvc.NewLocal(backend, zkvc.DefaultOptions())
			local.Seed = cnnSeed
			rep := proveCNN(t, local, req)

			remote := server.NewClient(cnnNode(t, backend))
			srep := proveCNN(t, remote, req)
			if !bytes.Equal(canonicalReport(rep), canonicalReport(srep)) {
				t.Fatal("service SGD report differs from local at equal seeds")
			}

			updIdx := -1
			for i := range rep.Ops {
				if rep.Ops[i].Tag == "sgd.update.head" {
					updIdx = i
				}
			}
			if updIdx < 0 {
				t.Fatal("report has no sgd.update.head op")
			}
			if err := local.VerifyModel(ctx, rep); err != nil {
				t.Fatalf("VerifyModel: %v", err)
			}

			// Forge the update: a prover claiming a different W' changes
			// the op's public inputs.
			bad := *rep
			bad.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
			pub := append([]ff.Fr(nil), bad.Ops[updIdx].Public...)
			var one ff.Fr
			one.SetOne()
			pub[1].Add(&pub[1], &one)
			bad.Ops[updIdx].Public = pub
			if err := local.VerifyModel(ctx, &bad); !errors.Is(err, zkvc.ErrVerification) {
				t.Fatalf("tampered update, VerifyModel: got %v, want ErrVerification", err)
			}
			if err := remote.VerifyModel(ctx, &bad); !errors.Is(err, zkvc.ErrVerification) {
				t.Fatalf("tampered update, remote VerifyModel: got %v, want ErrVerification", err)
			}
		})
	}
}

// TestCNNReportTamperSuite is the CNN tamper matrix from the issue:
// a flipped im2col operand, a relabeled conv op, and a truncated
// stream must all be rejected.
func TestCNNReportTamperSuite(t *testing.T) {
	ctx := context.Background()
	backend := zkvc.Spartan
	cfg := nn.TinyCNNConfig("cnn-tamper")
	model, err := zkvc.NewModel(cfg, cnnSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(cnnSeed+3))), &trace)
	req := &zkvc.ModelRequest{Backend: backend, Cfg: cfg, Trace: &trace}

	local := zkvc.NewLocal(backend, zkvc.DefaultOptions())
	local.Seed = cnnSeed
	rep := proveCNN(t, local, req)
	remote := server.NewClient(cnnNode(t, backend))
	if !bytes.Equal(canonicalReport(rep), canonicalReport(proveCNN(t, remote, req))) {
		t.Fatal("service report differs from local")
	}

	convIdx := -1
	for i := range rep.Ops {
		if rep.Ops[i].Kind == nn.OpConv2D {
			convIdx = i
		}
	}
	if convIdx < 0 {
		t.Fatal("report has no conv op")
	}

	// Flipped im2col operand: the conv op's public inputs carry the
	// lowered statement, so changing one entry is claiming a different
	// expansion — rejected cryptographically.
	flipped := *rep
	flipped.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
	pub := append([]ff.Fr(nil), flipped.Ops[convIdx].Public...)
	var one ff.Fr
	one.SetOne()
	pub[1].Add(&pub[1], &one)
	flipped.Ops[convIdx].Public = pub
	if err := local.VerifyModel(ctx, &flipped); !errors.Is(err, zkvc.ErrVerification) {
		t.Fatalf("flipped im2col operand: got %v, want ErrVerification", err)
	}

	// Relabeled conv op: rewriting conv2d as a plain matmul changes the
	// report's canonical bytes, so the issuing node's policy rejects it
	// (the report was never issued in that form).
	relabeled := *rep
	relabeled.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
	relabeled.Ops[convIdx].Kind = nn.OpMatMul
	if err := remote.VerifyModel(ctx, &relabeled); !errors.Is(err, zkvc.ErrVerification) {
		t.Fatalf("relabeled conv op, remote verify: got %v, want ErrVerification", err)
	}

	// Truncated stream: a report cut mid-frame must fail strict decode,
	// never panic or yield a partial report.
	raw := wire.EncodeReport(rep)
	for _, cut := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := wire.DecodeReport(raw[:cut]); err == nil {
			t.Fatalf("report truncated to %d bytes decoded", cut)
		}
	}
}
