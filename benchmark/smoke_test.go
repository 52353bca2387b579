package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var errTest = errors.New("test failure")

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []endToEndRow `json:"end_to_end"`
	PerLayer   []perLayerRow `json:"per_layer"`
}

type endToEndRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared renders the tables of metrics.go in the file's shape.
func declared() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndRow{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerRow{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestBenchmarkJSON holds ../BENCHMARK.json and metrics.go together and
// checks the contract's limits on names, units and counts.
func TestBenchmarkJSON(t *testing.T) {
	want := declared()
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("../BENCHMARK.json differs from metrics.go; run go test -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	for _, w := range workloadDefs {
		check(w.Name, "", "")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("%s: declared but not implemented", w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(workloadDefs); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("over a contract limit: %d workloads, %d end-to-end, %d per-layer, %d bytes", n, len(endToEnd), len(perLayer), len(raw))
	}
}

// TestSmoke runs every workload at its minimum size, untraced and
// traced, with no timing assertions: it ran, every operation verified,
// the tamper gate rejected (run fails otherwise), and every declared
// metric is present exactly once under its declared unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.001, trace: trace, small: true, tmpDir: ".bench_build/tmp"}
				if trace {
					cfg.traceOut = ".bench_build/spans-smoke-" + w.Name + ".json"
				}
				var text bytes.Buffer
				res, err := run(context.Background(), cfg, &text)
				if err != nil {
					t.Fatalf("%v\n%s", err, text.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, text.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("%s: reported %+v (present=%v), declared unit %s", d.Name, got, ok, d.Unit)
					}
					if !trace && res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end value %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
					}
				}
				if trace {
					checkSpanFile(t, cfg.traceOut)
				}
			})
		}
	}
}

// checkSpanFile parses a span file and checks that every span is closed
// and every span but the roots names a recorded parent.
func checkSpanFile(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env   map[string]any `json:"env"`
		Spans []span         `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 || file.Env["workload"] == nil {
		t.Fatalf("span file has %d spans, env %v", len(file.Spans), file.Env)
	}
	roots := 0
	for _, s := range file.Spans {
		if s.End.Before(s.Start) {
			t.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
		} else if s.Parent < 1 || s.Parent > len(file.Spans) || s.Parent == s.ID {
			t.Errorf("span %d (%s) names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
		}
	}
	if roots == 0 || roots == len(file.Spans) {
		t.Errorf("%d of %d spans are roots", roots, len(file.Spans))
	}
}
