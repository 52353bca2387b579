package main

// The benchmark's declared surface: workload names, end-to-end metrics
// with their regression bounds, and per-layer metrics. BENCHMARK.json at
// the repository root repeats these tables for the driver; smoke_test.go
// fails when the two disagree. Later issues cite these names verbatim.

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"matmul_spartan", "Paper Fig. 3 matmul (49x64x128) on the transparent backend: pcs, sumcheck, mle, poly and ff.Fr do all the work, curve none"},
	{"matmul_groth16", "Same matmul on the pairing backend under an epoch CRS: one 17k-point MSM family per proof, a 9.4k-point IC MSM per verify; pcs and sumcheck idle"},
	{"bert_groth16", "BERT-GLUE/scaled16 matmul ops via async durable jobs: 58 small Groth16 setups, small MSMs, 58-vs-1 final exponentiations; journal path"},
	{"vit_spartan_nl", "ViT-CIFAR10/scaled32 with softmax+GELU gadgets via the sync model stream: constraint-heavy Spartan, a 65 MB report through wire"},
	{"service_matmul", "Tiny 8x8x8 Spartan statements through coordinator and nodes, closed loop: server, wire and cluster are about half of each round trip"},
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (see README.md for the per-workload reading of
// verify_agg_s and throughput_ops_s).
var endToEnd = []metricDef{
	{"prove_s", "s", "lower", 0.25},
	{"verify_s", "s", "lower", 0.25},
	{"verify_agg_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"proof_bytes", "bytes", "lower", 0.001},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
}

// perLayer is reported by the traced run only. A value of 0 means the
// layer is not on that workload's path.
var perLayer = []metricDef{
	{Name: "ff.fr_mul_ns", Unit: "ns", Better: "lower"},
	{Name: "ff.fp_mul_ns", Unit: "ns", Better: "lower"},
	{Name: "ff.fp_inverse_ns", Unit: "ns", Better: "lower"},
	{Name: "ff.fp12_mul_ns", Unit: "ns", Better: "lower"},

	{Name: "poly.ntt_ns_per_butterfly", Unit: "ns", Better: "lower"},
	{Name: "poly.batch_inverse_ns_per_elem", Unit: "ns", Better: "lower"},

	{Name: "mle.eq_table_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mle.fix_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mle.sparse_bind_ns_per_entry", Unit: "ns", Better: "lower"},

	{Name: "sumcheck.prove_s", Unit: "s", Better: "lower"},
	{Name: "sumcheck.prove_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sumcheck.verify_s", Unit: "s", Better: "lower"},

	{Name: "pcs.commit_s", Unit: "s", Better: "lower"},
	{Name: "pcs.commit_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "pcs.open_s", Unit: "s", Better: "lower"},
	{Name: "pcs.verify_open_s", Unit: "s", Better: "lower"},
	{Name: "pcs.opening_bytes", Unit: "bytes", Better: "lower"},

	{Name: "curve.msm_g1_s", Unit: "s", Better: "lower"},
	{Name: "curve.msm_g2_s", Unit: "s", Better: "lower"},
	{Name: "curve.msm_g1_us_per_point_witness", Unit: "us", Better: "lower"},
	{Name: "curve.msm_g1_us_per_point_full", Unit: "us", Better: "lower"},
	{Name: "curve.msm_g2_us_per_point", Unit: "us", Better: "lower"},
	{Name: "curve.msm_ic_s", Unit: "s", Better: "lower"},
	{Name: "curve.fixed_base_g1_us_per_point", Unit: "us", Better: "lower"},
	{Name: "curve.fixed_base_g2_us_per_point", Unit: "us", Better: "lower"},
	{Name: "curve.miller_loop_ms", Unit: "ms", Better: "lower"},
	{Name: "curve.final_exp_ms", Unit: "ms", Better: "lower"},
	{Name: "curve.pairing_check_s", Unit: "s", Better: "lower"},
	{Name: "curve.final_exps_per_op_verify", Unit: "count", Better: "lower"},
	{Name: "curve.final_exps_aggregate_verify", Unit: "count", Better: "lower"},

	{Name: "qap.h_coefficients_s", Unit: "s", Better: "lower"},

	{Name: "r1cs.constraints", Unit: "count", Better: "lower"},
	{Name: "r1cs.variables", Unit: "count", Better: "lower"},
	{Name: "gadgets.softmax_synth_s", Unit: "s", Better: "lower"},
	{Name: "gadgets.gelu_synth_s", Unit: "s", Better: "lower"},

	{Name: "crpc.synthesize_s", Unit: "s", Better: "lower"},
	{Name: "crpc.synthesize_shape_s", Unit: "s", Better: "lower"},

	{Name: "spartan.prove_s", Unit: "s", Better: "lower"},
	{Name: "spartan.verify_s", Unit: "s", Better: "lower"},
	{Name: "spartan.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "groth16.setup_s", Unit: "s", Better: "lower"},
	{Name: "groth16.prove_s", Unit: "s", Better: "lower"},
	{Name: "groth16.verify_s", Unit: "s", Better: "lower"},
	{Name: "groth16.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "nn.forward_trace_s", Unit: "s", Better: "lower"},
	{Name: "zkml.plan_s", Unit: "s", Better: "lower"},
	{Name: "zkml.local_prove_s", Unit: "s", Better: "lower"},
	{Name: "zkml.op_synthesis_s_sum", Unit: "s", Better: "lower"},
	{Name: "zkml.op_setup_s_sum", Unit: "s", Better: "lower"},
	{Name: "zkml.op_prove_s_sum", Unit: "s", Better: "lower"},
	{Name: "zkml.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "zkml.first_op_s", Unit: "s", Better: "lower"},
	{Name: "zkml.ops", Unit: "count", Better: "lower"},
	{Name: "zkml.proof_payload_bytes", Unit: "bytes", Better: "lower"},

	{Name: "wire.encode_proof_s", Unit: "s", Better: "lower"},
	{Name: "wire.decode_proof_s", Unit: "s", Better: "lower"},
	{Name: "wire.encode_report_s", Unit: "s", Better: "lower"},
	{Name: "wire.decode_report_s", Unit: "s", Better: "lower"},
	{Name: "wire.report_bytes", Unit: "bytes", Better: "lower"},

	{Name: "server.prove_rtt_s", Unit: "s", Better: "lower"},
	{Name: "server.verify_rtt_s", Unit: "s", Better: "lower"},
	{Name: "server.shell_s", Unit: "s", Better: "lower"},
	{Name: "server.model_shell_s", Unit: "s", Better: "lower"},
	{Name: "server.crs_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.stream_stall_s", Unit: "s", Better: "lower"},
	{Name: "server.journal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},

	{Name: "cluster.prove_rtt_s", Unit: "s", Better: "lower"},
	{Name: "cluster.verify_rtt_s", Unit: "s", Better: "lower"},
	{Name: "cluster.route_s", Unit: "s", Better: "lower"},
	{Name: "cluster.prove_rtt_tail_s", Unit: "s", Better: "lower"},
	{Name: "cluster.retried", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},

	{Name: "parallel.budget", Unit: "count", Better: "higher"},
	{Name: "zkvc.prove_tail_s", Unit: "s", Better: "lower"},
	{Name: "zkvc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "zkvc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "zkvc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "zkvc.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "zkvc.trace_overhead_share", Unit: "ratio", Better: "lower"},
}
