package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"zkvc/internal/cluster"
	"zkvc/internal/promtext"
	"zkvc/internal/server"
)

// The Prometheus families a node and a coordinator expose, as sorted
// "# TYPE" lines. This list is the pin: a family may be added here
// only together with the Snapshot field that declares it, and never
// renamed or retyped, because dashboards and alerts key on the names.
var (
	nodeFamilies = []string{
		"# TYPE zkvc_admission_rejects_total counter",
		"# TYPE zkvc_batches_proved_total counter",
		"# TYPE zkvc_coalesce_ratio gauge",
		"# TYPE zkvc_crs_cache_hits_total counter",
		"# TYPE zkvc_crs_cache_misses_total counter",
		"# TYPE zkvc_direct_batches_proved_total counter",
		"# TYPE zkvc_disk_bytes gauge",
		"# TYPE zkvc_gc_pause_nanos_total counter",
		"# TYPE zkvc_heap_alloc_bytes gauge",
		"# TYPE zkvc_issued_attestations gauge",
		"# TYPE zkvc_issued_log_bytes gauge",
		"# TYPE zkvc_issued_log_errors_total counter",
		"# TYPE zkvc_issued_log_records gauge",
		"# TYPE zkvc_jobs_active gauge",
		"# TYPE zkvc_jobs_reaped_total counter",
		"# TYPE zkvc_jobs_resumed_total counter",
		"# TYPE zkvc_jobs_submitted_total counter",
		"# TYPE zkvc_matmuls_proved_total counter",
		"# TYPE zkvc_model_jobs_canceled_total counter",
		"# TYPE zkvc_model_jobs_proved_total counter",
		"# TYPE zkvc_model_jobs_total counter",
		"# TYPE zkvc_model_ops_proved_total counter",
		"# TYPE zkvc_model_ops_queued gauge",
		"# TYPE zkvc_model_rejects_total counter",
		"# TYPE zkvc_parallel_in_use gauge",
		"# TYPE zkvc_parallelism gauge",
		"# TYPE zkvc_phase_nanos_total counter",
		"# TYPE zkvc_prove_errors_total counter",
		"# TYPE zkvc_queue_depth gauge",
		"# TYPE zkvc_replicated_attestations gauge",
		"# TYPE zkvc_replication_errors_total counter",
		"# TYPE zkvc_requests_total counter",
		"# TYPE zkvc_stream_stall_nanos_total counter",
		"# TYPE zkvc_stream_stalls_total counter",
		"# TYPE zkvc_verify_requests_total counter",
		"# TYPE zkvc_vk_rejects_total counter",
		"# TYPE zkvc_write_errors_total counter",
	}
	coordinatorFamilies = []string{
		"# TYPE zkvc_cluster_announces_total counter",
		"# TYPE zkvc_cluster_attest_failures_total counter",
		"# TYPE zkvc_cluster_attest_updates_total counter",
		"# TYPE zkvc_cluster_failovers_total counter",
		"# TYPE zkvc_cluster_job_routes gauge",
		"# TYPE zkvc_cluster_jobs_routed_total counter",
		"# TYPE zkvc_cluster_retried_total counter",
		"# TYPE zkvc_cluster_routed_total counter",
		"# TYPE zkvc_cluster_stream_errors_total counter",
		"# TYPE zkvc_cluster_unroutable_total counter",
		"# TYPE zkvc_node_disk_bytes gauge",
		"# TYPE zkvc_node_draining gauge",
		"# TYPE zkvc_node_failovers_total counter",
		"# TYPE zkvc_node_healthy gauge",
		"# TYPE zkvc_node_mem_bytes gauge",
		"# TYPE zkvc_node_probe_failures gauge",
		"# TYPE zkvc_node_queue_units gauge",
		"# TYPE zkvc_node_routed_total counter",
		"# TYPE zkvc_node_workers gauge",
	}
)

// familyOverrides are the JSON keys whose family is not zkvc_<key>
// (plus _total on a counter). A key inside the coordinator's nodes
// array is written "node_<key>".
var familyOverrides = map[string]string{
	"gc_pause_total_nanos": "zkvc_gc_pause_nanos_total",
	"node_failed_over":     "zkvc_node_failovers_total",
}

// TestMetricsFamiliesPinned: the full set of Prometheus families on a
// node and on a coordinator is exactly the pinned list, and every
// numeric (or boolean) key of the matching GET /metrics JSON lands in
// one of them — no metric reaches one surface and misses the other.
func TestMetricsFamiliesPinned(t *testing.T) {
	_, nodeTS := newNode(t, nodeConfig(harnessSeed))
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = []string{nodeTS.URL}
	_, coordTS := newCoordinator(t, ccfg)

	for _, tc := range []struct {
		name string
		url  string
		want []string
	}{
		{"node", nodeTS.URL, nodeFamilies},
		{"coordinator", coordTS.URL, coordinatorFamilies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prom := get(t, tc.url+"/metrics/prometheus")
			types := map[string]bool{}
			var got []string
			for _, line := range strings.Split(string(prom), "\n") {
				if strings.HasPrefix(line, "# TYPE ") {
					got = append(got, line)
					types[strings.Fields(line)[2]] = true
				}
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("families moved:\n got %d: %s\nwant %d: %s", len(got), strings.Join(got, "\n     "), len(tc.want), strings.Join(tc.want, "\n     "))
			}

			var doc map[string]any
			if err := json.Unmarshal(get(t, tc.url+"/metrics"), &doc); err != nil {
				t.Fatal(err)
			}
			for _, key := range numericKeys(doc) {
				if !types[familyOf(key, false)] && !types[familyOf(key, true)] {
					t.Errorf("/metrics key %q has no Prometheus family", key)
				}
			}
		})
	}
}

// numericKeys lists the family keys of every numeric or boolean leaf
// of a /metrics document: a top-level key as is, a key of a nested
// object as its parent's key (the object is one labelled family), and
// a key of a nodes element as "node_<key>".
func numericKeys(doc map[string]any) []string {
	var out []string
	for k, v := range doc {
		switch v := v.(type) {
		case float64, bool:
			out = append(out, k)
		case map[string]any:
			out = append(out, k)
		case []any:
			for _, el := range v {
				for ek, ev := range el.(map[string]any) {
					switch ev.(type) {
					case float64, bool:
						out = append(out, "node_"+ek)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func familyOf(key string, counter bool) string {
	if fam, ok := familyOverrides[key]; ok {
		return fam
	}
	if counter {
		return "zkvc_" + key + "_total"
	}
	return "zkvc_" + key
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fillSnapshot sets every leaf of the struct v points to a distinct,
// deterministic value (two elements in every slice), so an encoding
// pin covers every field.
func fillSnapshot(v any) {
	n := 0
	var fill func(reflect.Value)
	fill = func(f reflect.Value) {
		n++
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i))
			}
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				fill(f.Index(i))
			}
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n) * 1000003)
		case reflect.Uint64:
			f.SetUint(uint64(n) * 7000001)
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			f.SetBool(n%2 == 0)
		case reflect.String:
			f.SetString(fmt.Sprintf("s-%d", n))
		default:
			panic("fillSnapshot: unhandled kind " + f.Kind().String())
		}
	}
	fill(reflect.ValueOf(v).Elem())
}

// TestMetricsJSONBytesPinned: GET /metrics on a node and on a
// coordinator writes the same bytes for the same values as before the
// prom tags existed. The goldens hold fillSnapshot's values as encoded
// by the hand-kept handlers MountMetrics replaced (indented
// encoding/json); they are never regenerated.
func TestMetricsJSONBytesPinned(t *testing.T) {
	var ns server.Snapshot
	fillSnapshot(&ns)
	var cs cluster.Snapshot
	fillSnapshot(&cs)
	for _, tc := range []struct {
		golden string
		mount  func(*http.ServeMux)
	}{
		{"node_metrics.json", func(mux *http.ServeMux) {
			server.MountMetrics(mux, func() server.Snapshot { return ns }, func(err error) { t.Error(err) })
		}},
		{"coordinator_metrics.json", func(mux *http.ServeMux) {
			server.MountMetrics(mux, func() cluster.Snapshot { return cs }, func(err error) { t.Error(err) })
		}},
	} {
		mux := http.NewServeMux()
		tc.mount(mux)
		ts := httptest.NewServer(mux)
		got := get(t, ts.URL+"/metrics")
		if err := promtext.Validate(get(t, ts.URL+"/metrics/prometheus")); err != nil {
			t.Errorf("%s: %v", tc.golden, err)
		}
		ts.Close()
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("/metrics bytes moved from %s:\n got %s\nwant %s", tc.golden, got, want)
		}
	}
}
