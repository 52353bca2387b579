package zkvc_test

// The Engine conformance suite: one table-driven contract run against
// every implementation — Local (in-process), server.Client (one remote
// service), cluster.Engine (a coordinator over two nodes) and
// server.AsyncClient (the durable-job API with resumable streams) — so a
// future implementation inherits the whole contract by being added to
// conformanceEngines. Pinned here:
//
//   - prove → verify round-trips for matmul, batch and model workloads;
//   - byte-identical proofs across all implementations at equal seeds
//     (wall-clock timings zeroed), on both backends;
//   - the streaming contract of ProveModel (every announced op exactly
//     once, valid sequence numbers, Report assembles in order);
//   - the error taxonomy (ErrVerification for failed checks, ctx.Err()
//     for cancellation) on every implementation.

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"zkvc"
	"zkvc/internal/cluster"
	"zkvc/internal/ff"
	"zkvc/internal/nn"
	"zkvc/internal/server"
	"zkvc/internal/wire"
)

const confSeed = 99

// namedEngine is one conformance row.
type namedEngine struct {
	name string
	eng  zkvc.Engine
}

// conformanceEngines builds the four implementations over one backend,
// all seeded identically: a Local engine, a Client against a standalone
// node, a cluster Engine against a coordinator fronting two more nodes,
// and an AsyncClient against its own node. Every server is torn down
// with the test.
func conformanceEngines(t *testing.T, backend zkvc.Backend) []namedEngine {
	t.Helper()
	local := zkvc.NewLocal(backend, zkvc.DefaultOptions())
	local.Seed = confSeed

	newNode := func() string {
		cfg := server.DefaultConfig()
		cfg.Backend = backend
		cfg.Seed = confSeed
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

	client := server.NewClient(newNode())

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{newNode(), newNode()}
	coord, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		front.Close()
		coord.Close()
	})

	return []namedEngine{
		{"local", local},
		{"client", client},
		{"cluster", cluster.NewEngine(front.URL)},
		// The durable-job spelling of the remote engine: ProveModel goes
		// through POST /v1/jobs and the resumable journal stream, and must
		// still be byte-identical to everything above at equal seeds.
		{"async", server.NewAsyncClient(newNode())},
	}
}

// canonicalMatMul / canonicalBatch / canonicalReport strip wall-clock
// timings so proofs from different engines compare byte for byte.
func canonicalMatMul(p *zkvc.MatMulProof) []byte {
	c := *p
	c.Timings = zkvc.Timings{}
	return wire.EncodeMatMulProof(&c)
}

func canonicalBatch(p *zkvc.BatchProof) []byte {
	c := *p
	c.Timings = zkvc.Timings{}
	return wire.EncodeBatchProof(&c)
}

func canonicalReport(rep *zkvc.Report) []byte {
	c := *rep
	c.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
	for i := range c.Ops {
		c.Ops[i].Synthesis = 0
		c.Ops[i].Setup = 0
		c.Ops[i].Prove = 0
		c.Ops[i].Verify = 0
	}
	return wire.EncodeReport(&c)
}

// conformanceModelRequest captures a tiny forward pass.
func conformanceModelRequest(t *testing.T, backend zkvc.Backend) *zkvc.ModelRequest {
	t.Helper()
	cfg := nn.TinyConfig("conformance", nn.MixerPooling)
	model, err := zkvc.NewModel(cfg, confSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(confSeed+1))), &trace)
	return &zkvc.ModelRequest{Backend: backend, ProveNonlinear: true, Cfg: cfg, Trace: &trace}
}

func TestEngineConformance(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			ctx := context.Background()
			engines := conformanceEngines(t, backend)

			rng := mrand.New(mrand.NewSource(confSeed))
			x := zkvc.RandomMatrix(rng, 6, 8, 32)
			w := zkvc.RandomMatrix(rng, 8, 5, 32)
			xOtherRows := zkvc.RandomMatrix(rng, 5, 8, 32)
			mreq := conformanceModelRequest(t, backend)

			matmuls := make(map[string][]byte)
			batches := make(map[string][]byte)
			reports := make(map[string][]byte)

			for _, ne := range engines {
				t.Run(ne.name, func(t *testing.T) {
					eng := ne.eng

					// --- matmul round trip + tamper taxonomy ---
					proof, err := eng.ProveMatMul(ctx, x, w)
					if err != nil {
						t.Fatalf("ProveMatMul: %v", err)
					}
					if err := eng.VerifyMatMul(ctx, x, proof); err != nil {
						t.Fatalf("VerifyMatMul of own proof: %v", err)
					}
					tampered := *proof
					tampered.Y = proof.Y.Clone()
					tampered.Y.At(0, 0).SetInt64(12345)
					if err := eng.VerifyMatMul(ctx, x, &tampered); !errors.Is(err, zkvc.ErrVerification) {
						t.Fatalf("tampered VerifyMatMul: got %v, want ErrVerification", err)
					}
					// A statement whose X has a different row count than
					// the proof's Y fails a shape check before any
					// cryptography runs — still a failed check, so still
					// ErrVerification on every engine.
					if err := eng.VerifyMatMul(ctx, xOtherRows, proof); !errors.Is(err, zkvc.ErrVerification) {
						t.Fatalf("VerifyMatMul against a %d-row X: got %v, want ErrVerification", xOtherRows.Rows, err)
					}
					matmuls[ne.name] = canonicalMatMul(proof)

					// --- batch round trip ---
					batch, err := eng.ProveBatch(ctx, [][2]*zkvc.Matrix{{x, w}, {x, w}})
					if err != nil {
						t.Fatalf("ProveBatch: %v", err)
					}
					if err := eng.VerifyBatch(ctx, []*zkvc.Matrix{x, x}, batch); err != nil {
						t.Fatalf("VerifyBatch of own batch: %v", err)
					}
					batches[ne.name] = canonicalBatch(batch)

					// --- model streaming contract + round trip ---
					stream := eng.ProveModel(ctx, mreq)
					seen := make(map[int]bool)
					for op, err := range stream.All() {
						if err != nil {
							t.Fatalf("model stream: %v", err)
						}
						if seen[op.Seq] {
							t.Fatalf("op sequence %d yielded twice", op.Seq)
						}
						seen[op.Seq] = true
					}
					rep, err := stream.Report()
					if err != nil {
						t.Fatalf("Report: %v", err)
					}
					if len(seen) != len(rep.Ops) {
						t.Fatalf("stream yielded %d ops, report has %d", len(seen), len(rep.Ops))
					}
					for i := range rep.Ops {
						if rep.Ops[i].Seq != i {
							t.Fatalf("report op %d carries sequence %d", i, rep.Ops[i].Seq)
						}
					}
					if err := eng.VerifyModel(ctx, rep); err != nil {
						t.Fatalf("VerifyModel of own report: %v", err)
					}
					reports[ne.name] = canonicalReport(rep)
					// A tampered report fails with the same sentinel on
					// every engine (a policy rejection remotely, a
					// cryptographic failure locally). Deep-copy the
					// tampered op so the retained report stays intact.
					bad := *rep
					bad.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
					pub := append([]ff.Fr(nil), bad.Ops[0].Public...)
					var one ff.Fr
					one.SetOne()
					pub[1].Add(&pub[1], &one)
					bad.Ops[0].Public = pub
					if err := eng.VerifyModel(ctx, &bad); !errors.Is(err, zkvc.ErrVerification) {
						t.Fatalf("tampered VerifyModel: got %v, want ErrVerification", err)
					}

					// --- cancellation taxonomy ---
					canceled, cancel := context.WithCancel(ctx)
					cancel()
					if _, err := eng.ProveMatMul(canceled, x, w); !errors.Is(err, context.Canceled) {
						t.Fatalf("canceled ProveMatMul: got %v, want context.Canceled", err)
					}
				})
			}

			// --- cross-engine byte identity at equal seeds ---
			// A bare seeded prover is what Local wraps: the Engine
			// interface must not change a byte.
			bare := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
			bare.Reseed(confSeed)
			proof, err := bare.ProveContext(ctx, x, w)
			if err != nil {
				t.Fatalf("bare prover: %v", err)
			}
			if !bytes.Equal(canonicalMatMul(proof), matmuls["local"]) {
				t.Fatal("bare seeded MatMulProver proof differs from local at equal seeds")
			}
			for _, ne := range engines[1:] {
				if !bytes.Equal(matmuls[ne.name], matmuls["local"]) {
					t.Fatalf("%s matmul proof differs from local at equal seeds", ne.name)
				}
				if !bytes.Equal(batches[ne.name], batches["local"]) {
					t.Fatalf("%s batch proof differs from local at equal seeds", ne.name)
				}
				if !bytes.Equal(reports[ne.name], reports["local"]) {
					t.Fatalf("%s model report differs from local at equal seeds", ne.name)
				}
			}
		})
	}
}

// conformanceCNNRequest captures a tiny CNN forward pass — the
// convolutional counterpart of conformanceModelRequest, with the conv
// lowered to its im2col matmul inside the trace.
func conformanceCNNRequest(t *testing.T, backend zkvc.Backend) *zkvc.ModelRequest {
	t.Helper()
	cfg := nn.TinyCNNConfig("conformance-cnn")
	model, err := zkvc.NewModel(cfg, confSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := zkvc.Trace{Capture: true}
	model.Forward(model.RandomInput(mrand.New(mrand.NewSource(confSeed+1))), &trace)
	return &zkvc.ModelRequest{Backend: backend, ProveNonlinear: true, Cfg: cfg, Trace: &trace}
}

// TestEngineConformanceCNN runs the CNN fixture through every engine on
// both backends: round trip, cross-engine byte
// identity at equal seeds, and the tamper sentinel on the conv op.
func TestEngineConformanceCNN(t *testing.T) {
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			ctx := context.Background()
			engines := conformanceEngines(t, backend)
			req := conformanceCNNRequest(t, backend)

			reports := make(map[string][]byte)
			for _, ne := range engines {
				ne := ne
				t.Run(ne.name, func(t *testing.T) {
					stream := ne.eng.ProveModel(ctx, req)
					rep, err := stream.Report()
					if err != nil {
						t.Fatalf("Report: %v", err)
					}
					convIdx := -1
					for i := range rep.Ops {
						if rep.Ops[i].Kind == nn.OpConv2D {
							convIdx = i
						}
					}
					if convIdx < 0 {
						t.Fatal("CNN report has no conv2d op")
					}
					if err := ne.eng.VerifyModel(ctx, rep); err != nil {
						t.Fatalf("VerifyModel: %v", err)
					}
					reports[ne.name] = canonicalReport(rep)

					bad := *rep
					bad.Ops = append([]zkvc.OpProof(nil), rep.Ops...)
					pub := append([]ff.Fr(nil), bad.Ops[convIdx].Public...)
					var one ff.Fr
					one.SetOne()
					pub[1].Add(&pub[1], &one)
					bad.Ops[convIdx].Public = pub
					if err := ne.eng.VerifyModel(ctx, &bad); !errors.Is(err, zkvc.ErrVerification) {
						t.Fatalf("tampered conv op: got %v, want ErrVerification", err)
					}
				})
			}
			for _, ne := range engines[1:] {
				if !bytes.Equal(reports[ne.name], reports["local"]) {
					t.Fatalf("%s CNN report differs from local at equal seeds", ne.name)
				}
			}
		})
	}
}

// TestVerifyModelAggregateRejectsCorruptedOpProof pins the soundness of
// the one model check: corrupting exactly one op proof — on Groth16 with
// a valid group element, so no decode-stage subgroup check can reject
// early, and only the batched pairing check sees it — must sink the
// whole verdict, on both backends, with the standard sentinel; and an
// empty report fails instead of passing vacuously. The deprecated
// VerifyOptions{Mode: VerifyAggregate} tail must give the same verdict
// as no options. Run against the Local engine, where the report reaches
// the cryptographic check directly (remote engines reject altered bytes
// at the issued-report policy instead, which the main suite covers).
func TestVerifyModelAggregateRejectsCorruptedOpProof(t *testing.T) {
	ctx := context.Background()
	agg := zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate}
	for _, backend := range []zkvc.Backend{zkvc.Spartan, zkvc.Groth16} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			eng := zkvc.NewLocal(backend, zkvc.DefaultOptions())
			eng.Seed = confSeed
			stream := eng.ProveModel(ctx, conformanceModelRequest(t, backend))
			rep, err := stream.Report()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.VerifyModel(ctx, rep); err != nil {
				t.Fatalf("valid report rejected: %v", err)
			}
			if err := eng.VerifyModel(ctx, rep, agg); err != nil {
				t.Fatalf("valid report rejected under the deprecated aggregate option: %v", err)
			}
			// Corrupt one op, leaving every other proof intact.
			op := &rep.Ops[len(rep.Ops)/2]
			switch backend {
			case zkvc.Groth16:
				forged := *op.G16
				forged.A.Neg(&op.G16.A)
				op.G16 = &forged
			default:
				forged := *op.Spartan
				forged.VA.Add(&forged.VA, &forged.VB)
				op.Spartan = &forged
			}
			err = eng.VerifyModel(ctx, rep)
			if !errors.Is(err, zkvc.ErrVerification) || !strings.Contains(err.Error(), op.Tag) {
				t.Fatalf("one corrupted op proof: got %v, want ErrVerification naming op %q", err, op.Tag)
			}
			if aggErr := eng.VerifyModel(ctx, rep, agg); aggErr == nil || aggErr.Error() != err.Error() {
				t.Fatalf("deprecated aggregate option: got %v, no options gave %v", aggErr, err)
			}
			// A report with no ops proves nothing.
			if err := eng.VerifyModel(ctx, &zkvc.Report{Backend: backend}); !errors.Is(err, zkvc.ErrVerification) {
				t.Fatalf("empty report: got %v, want ErrVerification", err)
			}
		})
	}
}
