package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/storeutil"
)

// fixedClock pins the runner clock so test sweeps are fully
// deterministic.
func fixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

// writeSweep produces a real sweep directory through the harness —
// manifest, timings and typed outputs — without running simulations.
func writeSweep(t *testing.T, dir string, expName string) {
	t.Helper()
	if _, ok := harness.Lookup(expName); !ok {
		registerProbe(expName)
	}
	r, err := harness.NewRunner(harness.Options{Rounds: 1, Seed: 1, OutDir: dir, Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{expName}); err != nil {
		t.Fatal(err)
	}
}

func registerProbe(expName string) {
	harness.Register(harness.Experiment{
		Name:  expName,
		Title: "synthetic sweepd probe",
		Run: func(c *harness.Context) error {
			if err := c.Emit(expName+".txt", harness.OutputRaw, "report body\n"); err != nil {
				return err
			}
			if err := c.Emit(expName+".dat", harness.OutputTable, "# x y\n1 2\n"); err != nil {
				return err
			}
			return c.Emit(expName+".svg", harness.OutputPlot, "<svg/>\n")
		},
	})
}

func newTestServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	writeSweep(t, dir, "sweepd-probe")
	benchDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(benchDir, "BENCH_9.json"), []byte(`{"bench":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(dir, benchDir, nil, false).routes())
	t.Cleanup(ts.Close)
	return ts, dir
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestCatalogueListsTypedOutputs(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/api/catalogue", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalogue status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("catalogue content type %q", ct)
	}
	var cat catalogue
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	var probe *catalogueRecord
	for i := range cat.Experiments {
		if cat.Experiments[i].Name == "sweepd-probe" {
			probe = &cat.Experiments[i]
		}
	}
	if probe == nil {
		t.Fatalf("catalogue misses sweepd-probe: %s", body)
	}
	kinds := map[string]harness.OutputKind{}
	for _, out := range probe.Outputs {
		kinds[out.File] = out.Kind
		if out.ETag == "" || !strings.HasPrefix(out.URL, "/outputs/") {
			t.Fatalf("output %+v lacks etag or url", out)
		}
	}
	if kinds["sweepd-probe.txt"] != harness.OutputRaw ||
		kinds["sweepd-probe.dat"] != harness.OutputTable ||
		kinds["sweepd-probe.svg"] != harness.OutputPlot {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestOutputContentTypesAndConditionalGet(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		file, wantCT string
	}{
		{"sweepd-probe.txt", "text/plain; charset=utf-8"},
		{"sweepd-probe.dat", "text/plain; charset=utf-8"},
		{"sweepd-probe.svg", "image/svg+xml"},
	}
	for _, tc := range cases {
		resp, body := get(t, ts.URL+"/outputs/"+tc.file, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", tc.file, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
			t.Fatalf("%s content type %q, want %q", tc.file, ct, tc.wantCT)
		}
		etag := resp.Header.Get("ETag")
		if len(etag) < 10 || !strings.HasPrefix(etag, `"`) {
			t.Fatalf("%s etag %q", tc.file, etag)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", tc.file)
		}

		// Matching If-None-Match answers 304 with no body.
		resp304, body304 := get(t, ts.URL+"/outputs/"+tc.file, map[string]string{"If-None-Match": etag})
		if resp304.StatusCode != http.StatusNotModified {
			t.Fatalf("%s conditional status %d, want 304", tc.file, resp304.StatusCode)
		}
		if len(body304) != 0 {
			t.Fatalf("%s: 304 carried a body", tc.file)
		}
		if got := resp304.Header.Get("ETag"); got != etag {
			t.Fatalf("%s: 304 etag %q, want %q", tc.file, got, etag)
		}

		// Weak-prefixed and list forms match; a stale tag does not.
		respW, _ := get(t, ts.URL+"/outputs/"+tc.file, map[string]string{"If-None-Match": `W/` + etag + `, "other"`})
		if respW.StatusCode != http.StatusNotModified {
			t.Fatalf("%s weak conditional status %d", tc.file, respW.StatusCode)
		}
		respStale, _ := get(t, ts.URL+"/outputs/"+tc.file, map[string]string{"If-None-Match": `"stale"`})
		if respStale.StatusCode != http.StatusOK {
			t.Fatalf("%s stale conditional status %d, want 200", tc.file, respStale.StatusCode)
		}
	}
}

func TestOutputsAreManifestAllowlisted(t *testing.T) {
	ts, dir := newTestServer(t)
	// On disk but not in the manifest: invisible to the API.
	if err := os.WriteFile(filepath.Join(dir, "secret.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/outputs/secret.txt", "/outputs/no-such.txt", "/outputs/manifest.json"} {
		resp, _ := get(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestManifestEndpointServesRawBytes(t *testing.T) {
	ts, dir := newTestServer(t)
	want, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/api/manifest", nil)
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("manifest endpoint diverges from disk (status %d)", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	resp304, _ := get(t, ts.URL+"/api/manifest", map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("manifest conditional status %d", resp304.StatusCode)
	}
}

func TestManifestReloadPicksUpNewExperiments(t *testing.T) {
	ts, dir := newTestServer(t)
	if resp, _ := get(t, ts.URL+"/api/catalogue", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first catalogue status %d", resp.StatusCode)
	}
	// A second producer run extends the sweep behind the server's back.
	writeSweep(t, dir, "sweepd-probe-late")
	_, body := get(t, ts.URL+"/api/catalogue", nil)
	if !strings.Contains(string(body), "sweepd-probe-late") {
		t.Fatalf("catalogue did not reload: %s", body)
	}
}

func TestBenchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	_, body := get(t, ts.URL+"/bench/", nil)
	if !strings.Contains(string(body), "BENCH_9.json") {
		t.Fatalf("bench listing misses artifact: %s", body)
	}
	resp, body := get(t, ts.URL+"/bench/BENCH_9.json", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("bench artifact status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	etag := resp.Header.Get("ETag")
	resp304, _ := get(t, ts.URL+"/bench/BENCH_9.json", map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("bench conditional status %d", resp304.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/bench/other.json", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-bench artifact served: %d", resp.StatusCode)
	}
	if string(body) != `{"bench":true}` {
		t.Fatalf("bench body %q", body)
	}
}

func TestStoreEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// No store configured: 404.
	if resp, _ := get(t, ts.URL+"/api/store", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store without store: %d", resp.StatusCode)
	}

	storeDir := t.TempDir()
	store, err := harness.NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("probe-key", &harness.UnitResult{Meta: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSweep(t, dir, "sweepd-probe-store")
	ts2 := httptest.NewServer(newServer(dir, t.TempDir(), store, false).routes())
	defer ts2.Close()
	var sum storeutil.Summary
	_, body := get(t, ts2.URL+"/api/store", nil)
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Entries != 1 || sum.Bytes <= 0 || sum.Schema != harness.ResultStoreSchema {
		t.Fatalf("store summary %+v", sum)
	}
}

func TestReadOnlyAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/catalogue", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestMissingManifestAnswers503(t *testing.T) {
	ts := httptest.NewServer(newServer(t.TempDir(), t.TempDir(), nil, false).routes())
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/api/catalogue", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("catalogue without manifest: %d, want 503", resp.StatusCode)
	}
}
