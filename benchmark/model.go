package main

import (
	"context"
	"errors"
	mrand "math/rand"
	"net/http/httptest"
	"os"
	"time"

	"zkvc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/gadgets"
	"zkvc/internal/nn"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelInst is bert_groth16 / vit_spartan_nl: whole model reports proved
// through one in-process node (over HTTP on loopback) and verified
// in-process in both modes. The model's weights are the server's private
// model, fixed for the run; the input is fresh every iteration.
type modelInst struct {
	cfg       runConfig
	backend   zkvc.Backend
	nonlinear bool
	mcfg      nn.Config
	model     *nn.Model
	rng       *mrand.Rand

	srv        *server.Server
	ts         *httptest.Server
	journalDir string
	engine     zkvc.Engine // the node, through the async-job or the sync stream client
	local      *zkvc.Local // the client's verifier

	last lastReport
}

// lastReport is what the latest iteration leaves behind for the tamper
// check and the traced run's layer rows.
type lastReport struct {
	raw     []byte        // the encoded report
	prove   time.Duration // the prove call's wall clock
	firstOp time.Duration // until the first op proof came out of the stream
	// final exponentiations of the per-op and of the aggregate verify
	finalExpsPerOp, finalExpsAggregate uint64
}

// newModel builds bert_groth16 (bert: matmul ops only, Groth16, durable
// async jobs journaled to disk) or vit_spartan_nl (softmax and GELU
// gadgets, Spartan, the synchronous model stream).
func newModel(cfg runConfig, bert bool) (instance, error) {
	m := &modelInst{cfg: cfg, rng: mrand.New(mrand.NewSource(cfg.seed))}
	if bert {
		m.backend, m.nonlinear, m.mcfg = zkvc.Groth16, false, nn.BERTGLUE().Scaled(16)
	} else {
		m.backend, m.nonlinear, m.mcfg = zkvc.Spartan, true, nn.ViTCIFAR10().Scaled(32)
	}
	if cfg.small {
		m.mcfg = nn.TinyConfig("benchmark-tiny", nn.MixerSoftmax)
	}
	var err error
	if m.model, err = nn.NewModel(m.mcfg, cfg.seed); err != nil {
		return nil, err
	}

	scfg := server.DefaultConfig()
	scfg.Backend = m.backend
	scfg.Seed = proverSeed
	if bert {
		if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
			return nil, err
		}
		if m.journalDir, err = os.MkdirTemp(cfg.tmpDir, "journal-"); err != nil {
			return nil, err
		}
		scfg.JournalDir = m.journalDir
	}
	if m.srv, err = server.New(scfg); err != nil {
		m.close()
		return nil, err
	}
	m.ts = httptest.NewServer(m.srv.Handler())
	if bert {
		c := server.NewAsyncClient(m.ts.URL)
		c.HTTP = m.ts.Client()
		m.engine = c
	} else {
		c := server.NewClient(m.ts.URL)
		c.HTTP = m.ts.Client()
		m.engine = c
	}
	m.local = zkvc.NewLocal(m.backend, zkvc.DefaultOptions())
	m.local.Seed = proverSeed
	return m, nil
}

func (m *modelInst) close() {
	if m.ts != nil {
		m.ts.Close()
	}
	if m.srv != nil {
		m.srv.Close()
	}
	if m.journalDir != "" {
		os.RemoveAll(m.journalDir)
	}
}

// request runs the model on a fresh input and captures the trace: the
// statement the client hands to the prover.
func (m *modelInst) request() *zkvc.ModelRequest {
	tr := &nn.Trace{Capture: true}
	m.model.Forward(m.model.RandomInput(m.rng), tr)
	return &zkvc.ModelRequest{Backend: m.backend, ProveNonlinear: m.nonlinear, Cfg: m.mcfg, Trace: tr}
}

var aggregate = zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate}

func (m *modelInst) iterate(ctx context.Context, i int, s *samples, rec *recorder) {
	req := m.request()
	root := rec.begin("iteration", 0, i, false)
	defer rec.end(root)
	var rep *zkvc.Report
	var err error
	var last lastReport
	stream := m.engine.ProveModel(ctx, req)
	start := time.Now()
	last.prove = rec.timed("zkvc.prove_model", root, i, false, func() {
		for _, e := range stream.All() {
			if last.firstOp == 0 {
				last.firstOp = time.Since(start)
			}
			err = errors.Join(err, e)
		}
		if err == nil {
			rep, err = stream.Report()
		}
	})
	if !s.record(opProve, last.prove, err) {
		return
	}
	_, fe0 := curve.PairingCounts()
	d := rec.timed("zkvc.verify_model", root, i, false, func() { err = m.local.VerifyModel(ctx, rep) })
	s.record(opVerify, d, err)
	_, fe1 := curve.PairingCounts()
	d = rec.timed("zkvc.verify_model_aggregate", root, i, false, func() { err = m.local.VerifyModel(ctx, rep, aggregate) })
	s.record(opVerifyAgg, d, err)
	_, fe2 := curve.PairingCounts()
	last.finalExpsPerOp, last.finalExpsAggregate = fe1-fe0, fe2-fe1
	last.raw = wire.EncodeReport(rep)
	s.bytes = append(s.bytes, len(last.raw))
	m.last = last
}

func (m *modelInst) warm(ctx context.Context) error {
	s := closedLoop(0, 1, func(i int, s *samples) { m.iterate(ctx, i, s, nil) })
	return s.firstErr
}

func (m *modelInst) measure(ctx context.Context, window time.Duration, rec *recorder) *samples {
	// A report takes seconds, so the window alone would time one or two.
	// The floor is what keeps the median's run-to-run spread inside the
	// bound: 3 on Groth16, 5 on Spartan with gadgets, whose iterations
	// scatter twice as much (800 MB allocated per report). A traced
	// run's two short loops take one report each.
	minIters := 3
	if m.nonlinear {
		minIters = 5
	}
	if m.cfg.small || m.cfg.trace {
		minIters = 1
	}
	return closedLoop(window, minIters, func(i int, s *samples) { m.iterate(ctx, i, s, rec) })
}

func (m *modelInst) tamper(ctx context.Context) error {
	rep, err := wire.DecodeReport(m.last.raw) // a private copy: TamperPublic edits in place
	if err != nil {
		return err
	}
	zkml.TamperPublic(rep, 0)
	for _, opts := range []zkvc.VerifyOptions{{}, aggregate} {
		if err := wantRejected(m.local.VerifyModel(ctx, rep, opts)); err != nil {
			return err
		}
	}
	return nil
}

func (m *modelInst) layers(ctx context.Context, rec *recorder, out map[string]float64) error {
	rng := mrand.New(mrand.NewSource(m.cfg.seed + 1))
	root := rec.begin("layers", 0, 0, false)
	defer rec.end(root)
	timed := func(name string, f func()) time.Duration { return rec.timed(name, root, 0, false, f) }

	tr := &nn.Trace{Capture: true}
	x := m.model.RandomInput(m.rng)
	out["nn.forward_trace_s"] = timed("nn.forward_trace", func() { m.model.Forward(x, tr) }).Seconds()
	req := &zkvc.ModelRequest{Backend: m.backend, ProveNonlinear: m.nonlinear, Cfg: m.mcfg, Trace: tr}
	var err error
	out["zkml.plan_s"] = timed("zkml.plan", func() {
		_, err = zkml.PlanTrace(tr, zkml.Options{ProveNonlinear: m.nonlinear})
	}).Seconds()
	if err != nil {
		return err
	}

	// The same request in-process: the difference to the node's time for
	// the latest timed request is the service shell (HTTP, frames,
	// journal, attestation).
	var localRep *zkvc.Report
	local := timed("zkml.local_prove", func() { localRep, err = m.local.ProveModel(ctx, req).Report() })
	if err != nil {
		return err
	}
	out["zkml.local_prove_s"] = local.Seconds()
	out["zkml.first_op_s"] = m.last.firstOp.Seconds()
	out["server.model_shell_s"] = (m.last.prove - local).Seconds()

	var synth, setup, prove, verify time.Duration
	var constraints, variables int
	for _, op := range localRep.Ops {
		synth, setup, prove, verify = synth+op.Synthesis, setup+op.Setup, prove+op.Prove, verify+op.Verify
		constraints, variables = constraints+op.Stats.Constraints, variables+op.Stats.Variables
	}
	out["zkml.op_synthesis_s_sum"] = synth.Seconds()
	out["zkml.op_setup_s_sum"] = setup.Seconds()
	out["zkml.op_prove_s_sum"] = prove.Seconds()
	out["zkml.parallel_efficiency"] = (synth + setup + prove + verify).Seconds() / (local.Seconds() * float64(zkvc.Parallelism()))
	out["zkml.ops"] = float64(len(localRep.Ops))
	out["zkml.proof_payload_bytes"] = float64(localRep.TotalProofBytes())
	out["r1cs.constraints"], out["r1cs.variables"] = float64(constraints), float64(variables)

	var raw []byte
	out["wire.encode_report_s"] = timed("wire.encode_report", func() { raw = wire.EncodeReport(localRep) }).Seconds()
	out["wire.decode_report_s"] = timed("wire.decode_report", func() { _, err = wire.DecodeReport(raw) }).Seconds()
	if err != nil {
		return err
	}
	out["wire.report_bytes"] = float64(len(raw))

	snap := m.srv.Metrics()
	if lookups := snap.CRSCacheHits + snap.CRSCacheMisses; lookups > 0 {
		out["server.crs_hit_ratio"] = float64(snap.CRSCacheHits) / float64(lookups)
	}
	out["server.stream_stall_s"] = time.Duration(snap.StreamStallNanos).Seconds()
	out["server.journal_bytes"] = float64(snap.DiskBytes)
	out["server.shed"] = float64(snap.AdmissionRejects)

	microFr(rng, out)
	if err := microPoly(rng, out); err != nil {
		return err
	}
	if m.backend == zkvc.Groth16 {
		microFp(rng, out)
		microCurve(rng, m.cfg.small, out)
		out["curve.final_exps_per_op_verify"] = float64(m.last.finalExpsPerOp)
		out["curve.final_exps_aggregate_verify"] = float64(m.last.finalExpsAggregate)
		return nil
	}
	microMLE(rng, out)
	m.gadgetLayers(rec, root, tr, out)
	return replayReportShapes(rec, root, rng, localRep, out)
}

// gadgetLayers synthesizes every traced softmax and GELU grid again —
// secret inputs plus the gadget circuit, without the output binding —
// and reports the time per gadget kind.
func (m *modelInst) gadgetLayers(rec *recorder, root int, tr *nn.Trace, out map[string]float64) {
	ncfg := gadgets.NonlinearConfig{Fixed: m.mcfg.Fixed, ExpIters: m.mcfg.SquareIters, ClipT: m.mcfg.ClipT, RangeBits: 40}
	var softmax, gelu time.Duration
	for i, op := range tr.Ops {
		if op.Kind != nn.OpSoftmax && op.Kind != nn.OpGELU {
			continue
		}
		d := rec.timed("gadgets."+op.Kind.String(), root, i, false, func() {
			b := r1cs.NewBuilder()
			var v ff.Fr
			for r := 0; r < op.In.Rows; r++ {
				row := op.In.Row(r)
				ins := make([]r1cs.LC, len(row))
				for j, val := range row {
					v.SetInt64(val)
					ins[j] = r1cs.VarLC(b.Secret(v))
				}
				if op.Kind == nn.OpSoftmax {
					gadgets.Softmax(b, ins, ncfg)
					continue
				}
				for j := range ins {
					gadgets.GELU(b, ins[j], ncfg)
				}
			}
			sink, _ = b.Finish()
		})
		if op.Kind == nn.OpSoftmax {
			softmax += d
		} else {
			gelu += d
		}
	}
	out["gadgets.softmax_synth_s"] = softmax.Seconds()
	out["gadgets.gelu_synth_s"] = gelu.Seconds()
}

// replayReportShapes replays Spartan's phases once per distinct circuit
// size in the report and weights each by how many ops have that size, so
// the pcs and sumcheck rows are sums over the report like
// zkml.op_prove_s_sum.
func replayReportShapes(rec *recorder, root int, rng *mrand.Rand, rep *zkvc.Report, out map[string]float64) error {
	counts := map[[2]int]int{}
	for _, op := range rep.Ops {
		counts[[2]int{logDim(op.Stats.Constraints), logDim(op.Stats.Variables)}]++
	}
	var total spartanPhases
	for shape, n := range counts {
		ph, err := replaySpartan(rec, root, 0, rng, shape[0], shape[1], nil, pcs.DefaultParams())
		if err != nil {
			return err
		}
		total.add(ph, n)
	}
	total.report(func(name string, v float64) { out[name] = v })
	return nil
}
