// Command benchmark is the repository's benchmark: five named workloads
// over both proof backends, the model pipeline and the service path. One
// invocation runs one workload in a fresh process and prints every metric
// by name with its unit and direction, as text and as one JSON object on
// the last line of standard output. See README.md.
//
//	go run . -workload matmul_spartan -seed 1 -seconds 10 -trace 0
//	go run . -workload all                       # every workload, untraced then traced
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"zkvc"
)

// proverSeed keys the provers' randomness (never 0, which means
// crypto/rand), so proof_bytes repeats exactly. Inputs come from -seed.
const proverSeed = 0x7a6b5643

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// tmpDir holds the journals of bert_groth16's node.
	tmpDir string
	// small selects the minimum sizes of smoke_test.go: one iteration, 50
	// requests, a TinyConfig-sized model, no fresh-process set-up samples.
	small bool
}

// window is the length of the timed loop.
func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// opKind indexes the latency samples of a workload's three timed calls.
type opKind int

const (
	opProve opKind = iota
	opVerify
	opVerifyAgg
	numOpKinds
)

// samples is what a timed loop collects. Latencies are of successful
// operations only; a failed operation counts in attempted and failed.
type samples struct {
	lat       [numOpKinds][]float64 // seconds
	bytes     []int                 // proof_bytes per proved statement
	attempted int
	failed    int
	firstErr  error
	iters     int
	window    time.Duration // wall clock of the timed loop
}

// record files one operation and reports whether it succeeded.
func (s *samples) record(kind opKind, d time.Duration, err error) bool {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return false
	}
	s.lat[kind] = append(s.lat[kind], d.Seconds())
	return true
}

func (s *samples) merge(o *samples) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.bytes = append(s.bytes, o.bytes...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.iters += o.iters
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// closedLoop runs iterate back to back — one caller, the next request
// only after the previous one completed — until the window has passed
// and at least minIters iterations ran.
func closedLoop(window time.Duration, minIters int, iterate func(i int, s *samples)) *samples {
	s := &samples{}
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < window; i++ {
		iterate(i, s)
		s.iters++
	}
	s.window = time.Since(start)
	return s
}

// instance is one set-up copy of a workload.
type instance interface {
	// warm runs the warm-up iterations; their time is part of setup_s.
	warm(ctx context.Context) error
	// measure runs the closed loop for the window. rec is nil untraced.
	measure(ctx context.Context, window time.Duration, rec *recorder) *samples
	// tamper submits a tampered statement and returns nil only if the
	// verifier rejected it with zkvc.ErrVerification.
	tamper(ctx context.Context) error
	// layers fills the per-layer metrics of the traced run.
	layers(ctx context.Context, rec *recorder, out map[string]float64) error
	close()
}

// workload ties a declared name to its constructor. setups is how many
// fresh processes sample setup_s (the run's own set-up is one of them).
type workload struct {
	setups int
	new    func(cfg runConfig) (instance, error)
}

var workloads = map[string]workload{
	"matmul_spartan": {setups: 5, new: func(c runConfig) (instance, error) { return newMatmul(c, zkvc.Spartan) }},
	"matmul_groth16": {setups: 3, new: func(c runConfig) (instance, error) { return newMatmul(c, zkvc.Groth16) }},
	"bert_groth16":   {setups: 1, new: func(c runConfig) (instance, error) { return newModel(c, true) }},
	"vit_spartan_nl": {setups: 1, new: func(c runConfig) (instance, error) { return newModel(c, false) }},
	"service_matmul": {setups: 5, new: newService},
}

// result is what one run reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setUp builds one instance and warms it up, returning the wall clock of
// both: the definition of setup_s.
func setUp(ctx context.Context, cfg runConfig) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := workloads[cfg.workload].new(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := inst.warm(ctx); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return inst, time.Since(start), nil
}

// run executes one workload and returns its result plus the text report.
func run(ctx context.Context, cfg runConfig, text io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	env := environment(cfg)
	fmt.Fprintf(text, "workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(text, "env %s\n", formatEnv(env))

	// Set-up samples from fresh processes first, so that a table built
	// lazily once per process shows in every sample, then this run's own.
	var setups []float64
	if !cfg.trace && !cfg.small && cfg.seconds > 0 { // a -seconds 0 child must not spawn its own
		for i := 1; i < wl.setups; i++ {
			s, err := setupInFreshProcess(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("fresh-process set-up: %w", err)
			}
			setups = append(setups, s)
		}
	}
	inst, setup, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	setups = append(setups, setup.Seconds())

	if err := inst.tamper(ctx); err != nil {
		return nil, fmt.Errorf("tamper check: %w", err)
	}
	fmt.Fprintln(text, "tamper check: rejected with zkvc.ErrVerification")

	res := &result{Metrics: map[string]reading{}}
	if cfg.seconds <= 0 {
		// Set-up only: what setupInFreshProcess asks of its child.
		res.Correct, res.Attempted = true, 1
		res.Metrics["setup_s"] = reading{setup.Seconds(), "s"}
		return res, nil
	}

	var s *samples
	values := map[string]float64{}
	defs := endToEnd
	if !cfg.trace {
		s = inst.measure(ctx, cfg.window(), nil)
		values["prove_s"] = median(s.lat[opProve])
		values["verify_s"] = median(s.lat[opVerify])
		values["verify_agg_s"] = median(s.lat[opVerifyAgg])
		if len(s.lat[opVerifyAgg]) == 0 {
			values["verify_agg_s"] = values["verify_s"] // no aggregate mode: the only mode there is
		}
		values["setup_s"] = median(setups)
		values["throughput_ops_s"] = float64(s.attempted-s.failed) / s.window.Seconds()
	} else {
		defs = perLayer
		if s, err = tracedRun(ctx, cfg, inst, env, values); err != nil {
			return nil, err
		}
	}
	bytesOK := len(s.bytes) > 0
	for _, b := range s.bytes {
		bytesOK = bytesOK && b == s.bytes[0]
	}
	if bytesOK && !cfg.trace {
		values["proof_bytes"] = float64(s.bytes[0])
	}

	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0 && bytesOK
	fmt.Fprintf(text, "iterations timed=%d set-up samples=%d  operations attempted=%d failed=%d (share %.4f)  proof_bytes identical=%v\n",
		s.iters, len(setups), s.attempted, s.failed, failedShare(s.attempted, s.failed), bytesOK)
	if s.firstErr != nil {
		fmt.Fprintf(text, "first failure: %v\n", s.firstErr)
	}
	if cfg.trace {
		fmt.Fprintf(text, "tail rows are at percentile %v (the highest with ten samples beyond it; <nil> = too few samples); an iteration's self time is %.6f s\n",
			env["tail_percentile"], env["iteration_self_time_s"])
	}
	for _, d := range defs {
		res.Metrics[d.Name] = reading{values[d.Name], d.Unit}
		line := fmt.Sprintf("%-36s %16.6f %-6s %s is better", d.Name, values[d.Name], d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %g", d.Bound)
		}
		fmt.Fprintln(text, line)
	}
	return res, nil
}

// tracedRun is the -trace 1 body: a short untraced loop, the same loop
// with the span recorder on, then the layer replays and loops; it writes
// the span file and returns the samples of both loops.
func tracedRun(ctx context.Context, cfg runConfig, inst instance, env map[string]any, values map[string]float64) (*samples, error) {
	rec := &recorder{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := inst.measure(ctx, cfg.window()/4, nil)
	runtime.ReadMemStats(&after)
	if ops := float64(plain.attempted - plain.failed); ops > 0 {
		values["zkvc.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops / (1 << 20)
		values["zkvc.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
		values["zkvc.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / ops / 1e6
	}
	traced := inst.measure(ctx, cfg.window()/4, rec)
	if p := median(plain.lat[opProve]); p > 0 {
		values["zkvc.trace_overhead_share"] = median(traced.lat[opProve])/p - 1
	}
	values["parallel.budget"] = float64(zkvc.Parallelism())

	if err := inst.layers(ctx, rec, values); err != nil {
		return nil, fmt.Errorf("layer measurements: %w", err)
	}
	plain.merge(traced)
	if pct, v, ok := tailPercentile(plain.lat[opProve]); ok {
		tail := "zkvc.prove_tail_s"
		if cfg.workload == "service_matmul" {
			tail = "cluster.prove_rtt_tail_s"
		}
		values[tail] = v
		env["tail_percentile"] = pct
	}
	values["zkvc.peak_rss_mb"] = peakRSSMB()
	// What an iteration spends outside its timed calls (input generation,
	// proof encoding) is its span's self time; it is in throughput_ops_s
	// and in no latency.
	env["iteration_self_time_s"] = median(rec.selfTimes("iteration"))
	if cfg.traceOut != "" {
		if err := rec.write(cfg.traceOut, env); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return plain, nil
}

// selfCommand is this binary run again on one workload, in a process of
// its own so that it inherits no arenas, CRS cache or heap.
func selfCommand(ctx context.Context, workload string, seed int64, seconds float64, trace string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// setupInFreshProcess runs this binary with -seconds 0 — set up, warm
// up, check the tamper gate, measure nothing — and returns its setup_s.
func setupInFreshProcess(ctx context.Context, cfg runConfig) (float64, error) {
	cmd, err := selfCommand(ctx, cfg.workload, cfg.seed, 0, "0")
	if err != nil {
		return 0, err
	}
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	res, err := lastResult(out)
	if err != nil {
		return 0, err
	}
	return res.Metrics["setup_s"].Value, nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// environment describes where the numbers were measured.
func environment(cfg runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	envOr := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"parallelism":      zkvc.Parallelism(),
		"go":               runtime.Version(),
		"commit":           commit,
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"ZKVC_PARALLELISM": envOr("ZKVC_PARALLELISM"),
		"ZKVC_NO_POOL":     envOr("ZKVC_NO_POOL"),
	}
}

func formatEnv(env map[string]any) string {
	keys := []string{"nproc", "gomaxprocs", "parallelism", "go", "commit", "ZKVC_PARALLELISM", "ZKVC_NO_POOL"}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, env[k])
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runAll runs every workload, untraced then traced, each in a fresh
// process.
func runAll(ctx context.Context, cfg runConfig) error {
	var failed []string
	for _, w := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			cmd, err := selfCommand(ctx, w.Name, cfg.seed, cfg.seconds, trace)
			if err == nil {
				cmd.Stdout = os.Stdout
				err = cmd.Run()
			}
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v", w.Name, trace, err))
			}
			fmt.Println()
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the timed loop; 0 sets up, checks and exits")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.tmpDir = ".bench_build/tmp"
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/spans-" + cfg.workload + ".json"
	}

	ctx := context.Background()
	if cfg.workload == "all" {
		if err := runAll(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
