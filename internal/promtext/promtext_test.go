package promtext

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestWriterOutputValidates(t *testing.T) {
	var buf bytes.Buffer
	p := NewWriter(&buf)
	p.Counter("reqs_total", 42)
	p.Gauge("queue_depth", 3.5)
	p.Counter("phase_nanos_total", 100, Label{Name: "phase", Value: "prove"})
	p.Counter("phase_nanos_total", 200, Label{Name: "phase", Value: "verify"})
	p.Gauge("weird", 1, Label{Name: "x", Value: "a\\b\"c\nd"})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := Validate([]byte(out)); err != nil {
		t.Fatalf("writer output fails its own validator: %v\n%s", err, out)
	}
	if got := strings.Count(out, "# TYPE phase_nanos_total counter"); got != 1 {
		t.Errorf("TYPE line for phase_nanos_total emitted %d times, want 1", got)
	}
	if !strings.Contains(out, `weird{x="a\\b\"c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

func TestWriterRejectsBadNamesAndTypeFlips(t *testing.T) {
	var buf bytes.Buffer
	p := NewWriter(&buf)
	p.Counter("1bad", 1)
	if p.Err() == nil {
		t.Error("metric name starting with a digit accepted")
	}
	p = NewWriter(&buf)
	p.Counter("m", 1)
	p.Gauge("m", 2)
	if p.Err() == nil {
		t.Error("same family emitted as counter then gauge accepted")
	}
	p = NewWriter(&buf)
	p.Gauge("m", 1, Label{Name: "bad-label", Value: "v"})
	if p.Err() == nil {
		t.Error("label name with a dash accepted")
	}
}

func TestValidateRejectsMalformedPayloads(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"no final newline":    "# TYPE a counter\na 1",
		"sample before TYPE":  "a 1\n",
		"unknown type":        "# TYPE a widget\na 1\n",
		"duplicate TYPE":      "# TYPE a counter\na 1\n# TYPE a counter\n",
		"bad value":           "# TYPE a counter\na xyz\n",
		"blank line":          "# TYPE a counter\n\na 1\n",
		"unterminated label":  "# TYPE a counter\na{x=\"v 1\n",
		"unquoted label":      "# TYPE a counter\na{x=v} 1\n",
		"stray comment":       "# a comment\n",
		"missing value":       "# TYPE a counter\na\n",
		"bad escape":          "# TYPE a counter\na{x=\"\\q\"} 1\n",
		"trailing comma":      "# TYPE a counter\na{x=\"v\",} 1\n",
		"repeated series":     "# TYPE a counter\na{x=\"v\"} 1\na{x=\"v\"} 2\n",
		"repeated, reordered": "# TYPE a counter\na{x=\"v\",y=\"w\"} 1\na{y=\"w\",x=\"v\"} 2\n",
		"repeated bare":       "# TYPE a counter\na 1\na 2\n",
	}
	for name, payload := range cases {
		if err := Validate([]byte(payload)); err == nil {
			t.Errorf("%s: validated:\n%q", name, payload)
		}
	}
	good := "# TYPE a counter\na 1\na{x=\"v\"} 2.5\n# TYPE b gauge\n# HELP b free text\nb{p=\"q\",r=\"s\"} -3e7 1700000000\n"
	if err := Validate([]byte(good)); err != nil {
		t.Errorf("well-formed payload rejected: %v", err)
	}
}

// TestEncodeShapes: every tag shape Encode supports, written in field
// order, and the output passes Validate.
func TestEncodeShapes(t *testing.T) {
	type row struct {
		Name    string `json:"name" prom:"label"`
		URL     string `json:"url"`
		Up      bool   `json:"up" prom:"gauge"`
		Moved   int64  `json:"moved" prom:"counter,name=moves"`
		Ignored int    `json:"ignored" prom:"-"`
	}
	snap := struct {
		Reqs   int64   `json:"reqs" prom:"counter"`
		Ratio  float64 `json:"ratio" prom:"gauge"`
		Heap   uint64  `json:"heap_bytes,omitempty" prom:"gauge"`
		Pause  int64   `json:"pause_total" prom:"counter,name=pause"`
		Phases struct {
			Prove  int64 `json:"prove"`
			Verify int64 `json:"verify"`
		} `json:"phases" prom:"counter,label=phase"`
		Rows   []row `json:"rows" prom:"label=node"`
		hidden int
	}{Reqs: 3, Ratio: 1.5, Heap: 7, Pause: 9, Rows: []row{{Name: "a", Up: true, Moved: 2}, {Name: "b\"", Moved: 4}}}
	snap.Phases.Prove, snap.Phases.Verify = 10, 20
	var buf bytes.Buffer
	if err := Encode(&buf, "ns", &snap); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ns_reqs_total counter
ns_reqs_total 3
# TYPE ns_ratio gauge
ns_ratio 1.5
# TYPE ns_heap_bytes gauge
ns_heap_bytes 7
# TYPE ns_pause_total counter
ns_pause_total 9
# TYPE ns_phases_total counter
ns_phases_total{phase="prove"} 10
ns_phases_total{phase="verify"} 20
# TYPE ns_node_up gauge
ns_node_up{node="a"} 1
ns_node_up{node="b\""} 0
# TYPE ns_node_moves_total counter
ns_node_moves_total{node="a"} 2
ns_node_moves_total{node="b\""} 4
`
	if got := buf.String(); got != want {
		t.Fatalf("Encode wrote\n%s\nwant\n%s", got, want)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRejectsBadTags: a number without a tag, an unknown option,
// a tag that does not fit its field's shape, and a slice element with
// no label field are errors, not silently dropped series.
func TestEncodeRejectsBadTags(t *testing.T) {
	type noLabel struct {
		N int `prom:"gauge"`
	}
	for name, v := range map[string]any{
		"untagged number": struct{ N int }{},
		"untagged bool":   struct{ B bool }{},
		"unknown option": struct {
			N int `prom:"counter,help=x"`
		}{},
		"no type": struct {
			N int `prom:"name=x"`
		}{},
		"label on scalar": struct {
			N int `prom:"gauge,label=x"`
		}{},
		"struct without label": struct {
			S struct{ A int } `prom:"counter"`
		}{},
		"slice with a type": struct {
			S []noLabel `prom:"gauge,label=n"`
		}{},
		"slice element without label field": struct {
			S []noLabel `prom:"label=n"`
		}{S: []noLabel{{}}},
		"string as number": struct {
			S string `prom:"gauge"`
		}{},
	} {
		if err := Encode(io.Discard, "ns", v); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}
