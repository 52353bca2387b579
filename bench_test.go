package zkvc_test

// One testing.B benchmark per paper table/figure, plus the ablation
// benches DESIGN.md calls out. Heavy rows are kept honest but tractable:
// benches run each configuration once per iteration (use -benchtime=1x
// for a single regeneration; cmd/zkvc-bench prints the full formatted
// tables, including the slow -full variants).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig6 -benchtime=1x
//
// Naming: BenchmarkTableN / BenchmarkFigN mirror the paper's evaluation
// section (§V).

import (
	"context"
	mrand "math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"zkvc"
	"zkvc/internal/bench"
	"zkvc/internal/crpc"
	"zkvc/internal/ff"
	"zkvc/internal/gadgets"
	"zkvc/internal/matrix"
	"zkvc/internal/nn"
	"zkvc/internal/planner"
	"zkvc/internal/r1cs"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// BenchmarkTableI "regenerates" the capability matrix (it is a property
// table; the bench only exercises the formatting path).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.TableI()
		if len(rows) != 9 {
			b.Fatal("table I shape")
		}
	}
}

// benchScheme runs one Figure 3/6 scheme at the given embedding dim.
func benchScheme(b *testing.B, s bench.Scheme, dim int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMatMul(s, 49, dim/2, dim, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Prove.Seconds(), "prove-s")
		b.ReportMetric(res.Verify.Seconds(), "verify-s")
		b.ReportMetric(float64(res.ProofBytes)/1024, "proof-KB")
		b.ReportMetric(res.Online.Seconds(), "online-s")
	}
}

// BenchmarkFig3 covers every scheme of Figure 3 at the paper's
// [49,64]×[64,128] shape. The vanilla Groth16-based baselines take tens
// of seconds per iteration — that gap IS the figure.
func BenchmarkFig3(b *testing.B) {
	for _, s := range bench.AllSchemes() {
		b.Run(s.String(), func(b *testing.B) { benchScheme(b, s, 128) })
	}
}

// BenchmarkFig6 sweeps the embedding dimension for the fast schemes at
// every paper point and anchors the heavy baselines at d ≤ 128 (the
// harness extrapolates the rest; see bench.Fig6).
func BenchmarkFig6(b *testing.B) {
	for _, dim := range bench.Fig6Dims {
		for _, s := range bench.AllSchemes() {
			heavy := s == bench.SchemeGroth16 || s == bench.SchemeSpartan ||
				s == bench.SchemeVCNN || s == bench.SchemeZEN || s == bench.SchemeZKML
			if heavy && dim > 128 {
				continue
			}
			b.Run(s.String()+"/dim="+itoa(dim), func(b *testing.B) { benchScheme(b, s, dim) })
		}
	}
}

// BenchmarkTableII runs the four CRPC/PSQ ablation variants on both
// backends at the default ablation shape.
func BenchmarkTableII(b *testing.B) {
	variants := []crpc.Options{{}, {PSQ: true}, {CRPC: true}, {CRPC: true, PSQ: true}}
	for _, v := range variants {
		for _, backend := range []bench.Scheme{bench.SchemeZkVCG, bench.SchemeZkVCS} {
			b.Run(v.String()+"/"+backend.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := bench.RunVariant(v, backend, 49, 64, 128, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Prove.Seconds(), "prove-s")
					b.ReportMetric(res.Verify.Seconds(), "verify-s")
				}
			})
		}
	}
}

// benchE2E estimates one Table III/IV row (full paper shapes via the
// measure-and-extrapolate path).
func benchE2E(b *testing.B, cfg nn.Config, mixers []nn.MixerKind, backend zkml.Backend) {
	b.Helper()
	c := cfg.WithMixers(mixers)
	opts := zkml.DefaultOptions()
	opts.Backend = backend
	for i := 0; i < b.N; i++ {
		est, err := zkml.MeasureModel(c, opts, zkml.DefaultCaps())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(est.TotalProve().Seconds(), "est-prove-s")
		b.ReportMetric(est.TotalWires(), "wires")
	}
}

// BenchmarkTableIII covers the ViT rows: 3 datasets × 4 mixer variants ×
// 2 backends.
func BenchmarkTableIII(b *testing.B) {
	datasets := []struct {
		name string
		cfg  nn.Config
	}{
		{"cifar10", nn.ViTCIFAR10()},
		{"tiny-imagenet", nn.ViTTinyImageNet()},
		{"imagenet", nn.ViTImageNetHier()},
	}
	for _, d := range datasets {
		n := d.cfg.TotalBlocks()
		rows := []struct {
			label  string
			mixers []nn.MixerKind
		}{
			{"SoftApprox", nn.UniformMixers(n, nn.MixerSoftmax)},
			{"SoftFree-S", nn.UniformMixers(n, nn.MixerScaling)},
			{"SoftFree-P", nn.UniformMixers(n, nn.MixerPooling)},
			{"zkVC", planner.PaperHybrid(d.cfg)},
		}
		for _, r := range rows {
			for _, backend := range []zkml.Backend{zkml.Groth16, zkml.Spartan} {
				b.Run(d.name+"/"+r.label+"/"+backend.String(), func(b *testing.B) {
					benchE2E(b, d.cfg, r.mixers, backend)
				})
			}
		}
	}
}

// BenchmarkTableIV covers the BERT rows.
func BenchmarkTableIV(b *testing.B) {
	cfg := nn.BERTGLUE()
	n := cfg.TotalBlocks()
	rows := []struct {
		label  string
		mixers []nn.MixerKind
	}{
		{"SoftApprox", nn.UniformMixers(n, nn.MixerSoftmax)},
		{"SoftFree-S", nn.UniformMixers(n, nn.MixerScaling)},
		{"SoftFree-L", nn.UniformMixers(n, nn.MixerLinear)},
		{"zkVC", planner.PaperHybrid(cfg)},
	}
	for _, r := range rows {
		for _, backend := range []zkml.Backend{zkml.Groth16, zkml.Spartan} {
			b.Run(r.label+"/"+backend.String(), func(b *testing.B) {
				benchE2E(b, cfg, r.mixers, backend)
			})
		}
	}
}

// BenchmarkScalingLaw validates the extrapolation assumption behind the
// harness: with the row count fixed, vanilla proving cost grows linearly
// in n·b. Compare prove-s across the sub-benchmarks.
func BenchmarkScalingLaw(b *testing.B) {
	for _, nb := range [][2]int{{16, 32}, {32, 64}, {64, 128}} {
		b.Run("n="+itoa(nb[0])+"/b="+itoa(nb[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunMatMul(bench.SchemeSpartan, 49, nb[0], nb[1], 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Prove.Seconds(), "prove-s")
				b.ReportMetric(float64(res.Constraints), "constraints")
			}
		})
	}
}

// BenchmarkPlannerSearch measures the hybrid planner itself (it must be
// negligible next to proving).
func BenchmarkPlannerSearch(b *testing.B) {
	cfg := nn.ViTImageNetHier()
	cm := planner.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		plan := planner.Search(cfg, cm, 0.55)
		if len(plan.Mixers) != cfg.TotalBlocks() {
			b.Fatal("bad plan")
		}
	}
}

// publicAPIOp returns the end-user operation at the quickstart shape —
// prove Y = X·W with a seeded prover, then verify — reporting the proof
// size. BenchmarkPublicAPI times it; TestAllocBudget bounds its
// allocations.
func publicAPIOp(backend zkvc.Backend) func() (int, error) {
	rng := mrand.New(mrand.NewSource(1))
	x := matrix.Random(rng, 49, 64, 256)
	w := matrix.Random(rng, 64, 128, 256)
	prover := zkvc.NewMatMulProver(backend, zkvc.DefaultOptions())
	prover.Reseed(7)
	return func() (int, error) {
		proof, err := prover.ProveContext(context.Background(), x, w)
		if err != nil {
			return 0, err
		}
		return proof.SizeBytes(), zkvc.VerifyMatMul(x, proof)
	}
}

// BenchmarkPublicAPI measures the end-user matmul proving path at the
// quickstart shape on both backends (what a downstream adopter sees).
func BenchmarkPublicAPI(b *testing.B) {
	for _, backend := range []zkvc.Backend{zkvc.Groth16, zkvc.Spartan} {
		b.Run(backend.String(), func(b *testing.B) {
			op := publicAPIOp(backend)
			// One untimed proof first: at -benchtime 1x a cold iteration
			// charges the arena pools' one-time warm-up (every scratch
			// bucket allocated at its power-of-two size) to that single
			// op. The rows measure the steady state the pools exist for.
			if _, err := op(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// benchBatchPairs is the batching workload: m = 8 products [16×32]·[32×16].
func benchBatchPairs() (pairs [][2]*zkvc.Matrix, xs []*zkvc.Matrix) {
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 8; i++ {
		x := matrix.Random(rng, 16, 32, 256)
		w := matrix.Random(rng, 32, 16, 256)
		pairs = append(pairs, [2]*zkvc.Matrix{x, w})
		xs = append(xs, x)
	}
	return pairs, xs
}

// foldedBatchOp returns the folded-batch operation — one proof for all
// of benchBatchPairs, then verify — reporting the proof size.
func foldedBatchOp() func() (int, error) {
	pairs, xs := benchBatchPairs()
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(3)
	return func() (int, error) {
		proof, err := prover.ProveBatchContext(context.Background(), pairs...)
		if err != nil {
			return 0, err
		}
		return proof.SizeBytes(), zkvc.VerifyMatMulBatch(xs, proof)
	}
}

// BenchmarkBatchProve demonstrates the batching extension: one folded
// proof for m products vs m individual proofs (compare total-s and
// proof-KB between the sub-benchmarks).
func BenchmarkBatchProve(b *testing.B) {
	b.Run("folded", func(b *testing.B) {
		op := foldedBatchOp()
		// Untimed pool warm-up; see BenchmarkPublicAPI.
		if _, err := op(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			size, err := op()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(size)/1024, "proof-KB")
		}
	})
	b.Run("individual", func(b *testing.B) {
		pairs, _ := benchBatchPairs()
		prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
		prover.Reseed(3)
		// Untimed pool warm-up; see BenchmarkPublicAPI.
		if _, err := prover.ProveContext(context.Background(), pairs[0][0], pairs[0][1]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, pr := range pairs {
				proof, err := prover.ProveContext(context.Background(), pr[0], pr[1])
				if err != nil {
					b.Fatal(err)
				}
				total += proof.SizeBytes()
			}
			b.ReportMetric(float64(total)/1024, "proof-KB")
		}
	})
}

// softmaxSynthOp returns the synthesis of a softmax op of rows rows of
// width seeded fixed-point inputs under the scaled ViT-CIFAR10 gadget
// parameters (the model prover's, as in zkml), reporting its constraint
// count. BenchmarkSoftmaxSynth in internal/gadgets times one such row.
func softmaxSynthOp(rows, width int) func() (int, error) {
	c := nn.ViTCIFAR10().Scaled(32)
	cfg := gadgets.NonlinearConfig{Fixed: c.Fixed, ExpIters: c.SquareIters, ClipT: c.ClipT, RangeBits: 40}
	rng := mrand.New(mrand.NewSource(71))
	vals := make([]ff.Fr, rows*width)
	for i := range vals {
		vals[i].SetInt64(rng.Int63n(8*cfg.Fixed.Scale()) - 6*cfg.Fixed.Scale())
	}
	return func() (int, error) {
		b := r1cs.NewBuilder()
		for r := 0; r < rows; r++ {
			ins := make([]r1cs.LC, width)
			for i := range ins {
				ins[i] = r1cs.VarLC(b.Secret(vals[r*width+i]))
			}
			gadgets.Softmax(b, ins, cfg)
		}
		sys, _ := b.Finish()
		return sys.NumConstraints(), nil
	}
}

// softmaxOpProof proves the first softmax op of one
// ViTCIFAR10().Scaled(32) forward pass, a 4×4 op as the model stream
// sends it: Spartan, with its R1CS system in the frame.
func softmaxOpProof(tb testing.TB) *zkml.OpProof {
	tb.Helper()
	cfg := nn.ViTCIFAR10().Scaled(32)
	m, err := nn.NewModel(cfg, 5)
	if err != nil {
		tb.Fatal(err)
	}
	trace := nn.Trace{Capture: true}
	m.Forward(m.RandomInput(mrand.New(mrand.NewSource(6))), &trace)
	for _, op := range trace.Ops {
		if op.Kind != nn.OpSoftmax {
			continue
		}
		rep, err := zkml.ProveTrace(cfg, &nn.Trace{Capture: true, Ops: []nn.Op{op}}, zkml.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		return &rep.Ops[0]
	}
	tb.Fatal("no softmax op in the trace")
	return nil
}

// opFrameOp returns the wire round trip of one model-stream frame —
// EncodeOpProof, then DecodeOpProof — of op, reporting the frame size.
func opFrameOp(op *zkml.OpProof) func() (int, error) {
	return func() (int, error) {
		frame := wire.EncodeOpProof(op)
		_, err := wire.DecodeOpProof(frame)
		return len(frame), err
	}
}

// BenchmarkOpFrame times the encode and the decode of one softmax 4×4
// op frame, the unit the model stream sends and the report repeats.
func BenchmarkOpFrame(b *testing.B) {
	op := softmaxOpProof(b)
	frame := wire.EncodeOpProof(op)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			wire.EncodeOpProof(op)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeOpProof(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAllocBudget is the machine-portable gate on the pooled hot path
// (internal/arena): allocations and bytes per steady-state operation,
// budgeted at 1.25× what the commit before this test measured. The
// worker budget is pinned to 1 so the allocation schedule does not depend
// on the core count. A pooled checkout reverted to a plain make shows in
// B/op (the PCS codeword rows alone are +40 % on the Spartan rows, and
// ZKVC_NO_POOL=1 fails them); a per-element make shows in allocs/op.
func TestAllocBudget(t *testing.T) {
	// The race runtime makes sync.Pool drop a quarter of what is put
	// back, so there is no steady state to budget.
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	zkvc.SetParallelism(1)
	defer zkvc.SetParallelism(0)
	for _, row := range []struct {
		name          string
		op            func() (int, error)
		allocs, bytes uint64
	}{
		// 1.25 × (2957, 10 736 976), (24 783, 30 097 320), (6601, 6 579 440).
		// The zkVC-G op runs a Groth16 setup; its row was re-measured when
		// the generator window tables became once-per-process. The zkVC-S
		// allocs were re-measured at 1379–1439 (GOMAXPROCS 1–2) when the
		// sumcheck interpolation stopped allocating and Spartan stopped
		// building sparse matrices; its bytes vary up to 11.1 MB and keep
		// their budget.
		{"PublicAPI/zkVC-S", publicAPIOp(zkvc.Spartan), 2_000, 13_421_220},
		{"PublicAPI/zkVC-G", publicAPIOp(zkvc.Groth16), 30_979, 37_621_650},
		{"BatchProve/folded", foldedBatchOp(), 8_251, 8_224_300},
		// Softmax synthesis, budgeted when the linear combination
		// algebra stopped building maps and ToBits stopped rebuilding
		// its recomposition per bit. 4×4 is a softmax op of the scaled
		// model the prover benchmark runs (ViTCIFAR10().Scaled(32): 4
		// tokens); 1.25 × (12 346, 5 709 680). One 64-wide row is the
		// unscaled ViT-CIFAR10 width, whose denominator merges outgrow
		// the LC algebra's stack table; 1.25 × (49 440, 25 086 336),
		// where the same row took 307 644 allocs and 99.3 MB before
		// (BenchmarkSoftmaxSynth, which skips Finish).
		{"Synthesize/softmax4x4", softmaxSynthOp(4, 4), 15_433, 7_137_100},
		{"Synthesize/softmax64", softmaxSynthOp(1, 64), 61_800, 31_357_920},
		// One model-stream frame, encoded and decoded: a proved softmax
		// op of the scaled model (4×4), its R1CS system in the frame.
		// 1.25 × (113, 3 584 592) at GOMAXPROCS 1 and 2, budgeted when
		// the decoder carved every LC from one term slice; a make per LC
		// took the same row to 17 573 allocs and 10.6 MB.
		{"Wire/opframe-softmax4x4", opFrameOp(softmaxOpProof(t)), 142, 4_480_740},
		// The lone verify of BenchmarkVerifyMatMul, budgeted when it
		// stopped building the CRPC constraint system: 1.25 × (115,
		// 940 568), the most of 16 runs at GOMAXPROCS 1, 2 and 4 (most
		// read 87 and 622 456). The same row took 243 allocs and 4.0 MB
		// while it built the ~18k-term system per verify.
		{"VerifyMatMul/zkVC-S", loneVerifyOp(t), 144, 1_175_710},
	} {
		// One unmeasured op first: the pools fill on it.
		if _, err := row.op(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := row.op()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d allocs/op, %d B/op; budget %d allocs/op, %d B/op",
			row.name, allocs, bytes, row.allocs, row.bytes)
		if allocs > row.allocs || bytes > row.bytes {
			t.Errorf("%s is over its allocation budget", row.name)
		}
	}
}

// BenchmarkVerifyReport times zkml.VerifyReport, the one check behind
// Local.VerifyModel and /v1/verify/model, on a report of each model
// workload of benchmark/: ViTCIFAR10().Scaled(32) on Spartan with its
// softmax and GELU gadgets, and the matmuls of BERTGLUE().Scaled(16) on
// Groth16. Each report is verified on one worker, the serial schedule,
// and on the whole worker budget.
//
//	go test -run '^$' -bench BenchmarkVerifyReport -benchtime 10x
func BenchmarkVerifyReport(b *testing.B) {
	for _, w := range []struct {
		name      string
		cfg       nn.Config
		backend   zkml.Backend
		nonlinear bool
	}{
		{"vit_spartan_nl", nn.ViTCIFAR10().Scaled(32), zkml.Spartan, true},
		{"bert_groth16", nn.BERTGLUE().Scaled(16), zkml.Groth16, false},
	} {
		b.Run(w.name, func(b *testing.B) {
			m, err := nn.NewModel(w.cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			opts := zkml.DefaultOptions()
			opts.Backend, opts.ProveNonlinear = w.backend, w.nonlinear
			rep, err := zkml.ProveModel(m, m.RandomInput(mrand.New(mrand.NewSource(2))), opts)
			if err != nil {
				b.Fatal(err)
			}
			atWorkers(b, func() error { return zkml.VerifyReport(rep, opts) })
		})
	}
}

// loneVerifyOp proves one matmul_spartan-shape statement (49×64×128,
// Fig. 3's product on the transparent backend) and returns its
// VerifyMatMul. BenchmarkVerifyMatMul times it; TestAllocBudget bounds
// its allocations.
func loneVerifyOp(tb testing.TB) func() (int, error) {
	rng := mrand.New(mrand.NewSource(1))
	x := zkvc.RandomMatrix(rng, 49, 64, 256)
	w := zkvc.RandomMatrix(rng, 64, 128, 256)
	prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
	prover.Reseed(2)
	proof, err := prover.ProveContext(context.Background(), x, w)
	if err != nil {
		tb.Fatal(err)
	}
	return func() (int, error) { return proof.SizeBytes(), zkvc.VerifyMatMul(x, proof) }
}

// BenchmarkVerifyMatMul times the verify of matmul statements proved
// once outside the timer, on one worker and on the whole worker budget:
// one VerifyMatMul of loneVerifyOp's statement, and one VerifyMatMulBatch
// of three such statements folded into one proof. These are the
// lone-verify rows beside BenchmarkVerifyReport's reports.
//
//	go test -run '^$' -bench BenchmarkVerifyMatMul -benchtime 20x
func BenchmarkVerifyMatMul(b *testing.B) {
	b.Run("VerifyMatMul", func(b *testing.B) {
		op := loneVerifyOp(b)
		atWorkers(b, func() error { _, err := op(); return err })
	})
	b.Run("VerifyMatMulBatch", func(b *testing.B) {
		rng := mrand.New(mrand.NewSource(1))
		var pairs [][2]*zkvc.Matrix
		var xs []*zkvc.Matrix
		for range 3 {
			x := zkvc.RandomMatrix(rng, 49, 64, 256)
			pairs, xs = append(pairs, [2]*zkvc.Matrix{x, zkvc.RandomMatrix(rng, 64, 128, 256)}), append(xs, x)
		}
		prover := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
		prover.Reseed(2)
		proof, err := prover.ProveBatchContext(context.Background(), pairs...)
		if err != nil {
			b.Fatal(err)
		}
		atWorkers(b, func() error { return zkvc.VerifyMatMulBatch(xs, proof) })
	})
}

// atWorkers times op in two sub-benchmarks: on one worker, the serial
// schedule, and on the whole worker budget.
func atWorkers(b *testing.B, op func() error) {
	for _, workers := range []int{1, 0} {
		name := "workers=all"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			zkvc.SetParallelism(workers)
			defer zkvc.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
