package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// writeRunSnapshot fakes the sweep producer's metrics.json: a snapshot
// built by hand (so the test does not pollute the process default
// registry) with the counters a real instrumented run would leave behind.
func writeRunSnapshot(t *testing.T, dir string) {
	t.Helper()
	snap := metrics.Snapshot{
		Counters: []metrics.CounterSample{
			{Name: "result_store_hits_total", Value: 7},
			{Name: "result_store_misses_total", Value: 3},
			{Name: "sim_events_processed_total", Value: 4242},
		},
		Help: map[string]string{
			"result_store_hits_total":    "store hits",
			"result_store_misses_total":  "store misses",
			"sim_events_processed_total": "events whose callbacks ran",
		},
	}
	var buf bytes.Buffer
	if err := snap.Deterministic().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, harness.MetricsFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpointServesMergedExposition(t *testing.T) {
	ts, dir := newTestServer(t)
	writeRunSnapshot(t, dir)

	resp, body := get(t, ts.URL+"/api/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	// The run's persisted counts win over this process's zero-valued
	// registrations of the same families.
	for _, want := range []string{
		"# TYPE sim_events_processed_total counter",
		"sim_events_processed_total 4242",
		"result_store_hits_total 7",
		"result_store_misses_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition misses %q:\n%s", want, text)
		}
	}
	// Live-only families (sweepd's own request counter) still appear.
	if !strings.Contains(text, "sweepd_http_requests_total") {
		t.Errorf("exposition misses the live request counter:\n%s", text)
	}

	// The exposition must satisfy the linter CI scrapes it with, with the
	// families the run counted nonzero.
	nonzero := []string{"sim_events_processed_total", "result_store_hits_total"}
	if err := metrics.LintPrometheus(strings.NewReader(text), nonzero); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}

	// Content negotiation: JSON on request.
	respJSON, bodyJSON := get(t, ts.URL+"/api/metrics", map[string]string{"Accept": "application/json"})
	if ct := respJSON.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("negotiated content type %q", ct)
	}
	if snap, err := metrics.ReadSnapshotJSON(bodyJSON); err != nil {
		t.Fatalf("JSON body does not parse as a snapshot: %v", err)
	} else {
		found := false
		for _, c := range snap.Counters {
			if c.Name == "sim_events_processed_total" && c.Value == 4242 {
				found = true
			}
		}
		if !found {
			t.Fatalf("JSON snapshot misses the merged run counter: %s", bodyJSON)
		}
	}
}

func TestMetricsEndpointWithoutRunSnapshot(t *testing.T) {
	// No metrics.json on disk: the endpoint still serves the live
	// registry instead of erroring, so scrapes never flap while the
	// first instrumented sweep is running.
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/api/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics without snapshot: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "sweepd_http_requests_total") {
		t.Fatalf("live-only exposition misses the request counter: %s", body)
	}
}

func TestProgressEndpoint(t *testing.T) {
	expName := "sweepd-progress-probe"
	if !slices.Contains(harness.Names(), expName) {
		harness.Register(harness.Experiment{
			Name:  expName,
			Title: "synthetic progress probe",
			Run: func(c *harness.Context) error {
				return c.RunUnits([]harness.Unit{
					{Scenario: "probe", Point: "p0", Round: 0, Run: func() error { return nil }},
					{Scenario: "probe", Point: "p0", Round: 1, Run: func() error { return nil }},
				})
			},
		})
	}
	dir := t.TempDir()
	writeSweep(t, dir, expName)
	ts := httptest.NewServer(newServer(dir, t.TempDir(), nil, false).routes())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/api/progress", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, `"units_total": 2`) {
		t.Errorf("progress misses the unit total: %s", text)
	}
	if !strings.Contains(text, expName) {
		t.Errorf("progress misses the experiment breakdown: %s", text)
	}
	if !strings.Contains(text, `"generated_at"`) {
		t.Errorf("progress misses timings provenance: %s", text)
	}
}

func TestIndexListsAllRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	_, body := get(t, ts.URL+"/", nil)
	// ("<file>" arrives JSON-escaped as <file>, so match the
	// route prefixes only.)
	for _, route := range []string{
		"/healthz", "/api/catalogue", "/api/manifest", "/api/store",
		"/api/metrics", "/api/progress", "/outputs/", "/bench/",
	} {
		if !strings.Contains(string(body), route) {
			t.Errorf("index misses %s: %s", route, body)
		}
	}
	// pprof is only advertised (and mounted) with -debug.
	if strings.Contains(string(body), "/debug/pprof/") {
		t.Errorf("index lists pprof without -debug: %s", body)
	}
}

func TestDebugMountsPprof(t *testing.T) {
	dir := t.TempDir()
	writeSweep(t, dir, "sweepd-probe")
	ts := httptest.NewServer(newServer(dir, t.TempDir(), nil, true).routes())
	defer ts.Close()

	_, body := get(t, ts.URL+"/", nil)
	if !strings.Contains(string(body), "/debug/pprof/") {
		t.Errorf("-debug index misses pprof: %s", body)
	}
	resp, _ := get(t, ts.URL+"/debug/pprof/cmdline", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}

	// Without -debug the same path falls through to the index 404.
	tsOff := httptest.NewServer(newServer(dir, t.TempDir(), nil, false).routes())
	defer tsOff.Close()
	if resp, _ := get(t, tsOff.URL+"/debug/pprof/cmdline", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -debug: %d", resp.StatusCode)
	}
}

func TestWriteMethods405OnKnownRoutes404Elsewhere(t *testing.T) {
	ts, _ := newTestServer(t)
	do := func(method, path string) int {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed {
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q", method, path, allow)
			}
		}
		return resp.StatusCode
	}
	for _, path := range []string{
		"/", "/healthz", "/api/catalogue", "/api/manifest", "/api/store",
		"/api/metrics", "/api/progress", "/outputs/whatever", "/bench/",
	} {
		if code := do(http.MethodPost, path); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, code)
		}
		if code := do(http.MethodDelete, path); code != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s = %d, want 405", path, code)
		}
	}
	for _, path := range []string{"/no/such/route", "/apix", "/debug/pprof/heap"} {
		if code := do(http.MethodPost, path); code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, code)
		}
	}
}
