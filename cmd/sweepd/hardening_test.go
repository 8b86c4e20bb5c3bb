package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAPIHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/api/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var h struct {
		Status         string `json:"status"`
		ManifestLoaded bool   `json:"manifest_loaded"`
		Experiments    int    `json:"experiments"`
		UptimeSeconds  *int64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, body)
	}
	if h.Status != "ok" || !h.ManifestLoaded || h.Experiments != 1 || h.UptimeSeconds == nil {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestAPIHealthzWithoutManifest: the probe stays 200 before the first
// sweep lands — the process is alive; readiness is in the payload.
func TestAPIHealthzWithoutManifest(t *testing.T) {
	ts := httptest.NewServer(newServer(t.TempDir(), t.TempDir(), nil, false).routes())
	t.Cleanup(ts.Close)
	resp, body := get(t, ts.URL+"/api/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d before a manifest exists: %s", resp.StatusCode, body)
	}
	var h struct {
		ManifestLoaded bool `json:"manifest_loaded"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.ManifestLoaded {
		t.Fatal("manifest_loaded true with no manifest on disk")
	}
}

// TestPanicRecoveryMiddleware: a panicking handler answers 500 and the
// process (and every later request) keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := newServer(t.TempDir(), t.TempDir(), nil, false)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("still here"))
	})
	ts := httptest.NewServer(s.recoverPanics(mux))
	t.Cleanup(ts.Close)

	before := mPanics.Value()
	resp, body := get(t, ts.URL+"/boom", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal server error") {
		t.Fatalf("500 body = %q", body)
	}
	if got := mPanics.Value(); got != before+1 {
		t.Fatalf("panic counter moved %d -> %d, want +1", before, got)
	}
	resp, body = get(t, ts.URL+"/ok", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "still here" {
		t.Fatalf("server did not survive the panic: %d %q", resp.StatusCode, body)
	}
}

// TestHealthzKnownToReadOnlyGuard: wrong methods on the new endpoint
// get 405 + Allow, like every other known route.
func TestHealthzKnownToReadOnlyGuard(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		t.Fatalf("POST /api/healthz = %d (Allow %q), want 405 with Allow", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestOutputTraversalNeverServed: the manifest is outside input, and
// handleOutput joins a listed name onto the output directory. A
// manifest listing "../x" must not make /outputs/../x serve the file
// beside the output directory, neither at the handler (which is what a
// go >= 1.22 mux hands it) nor through the routes, raw or escaped.
func TestOutputTraversalNeverServed(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "out")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	const secret = "a file beside the output directory\n"
	if err := os.WriteFile(filepath.Join(root, "x"), []byte(secret), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(secret))
	manifest := fmt.Sprintf(`{"schema":2,"seed":1,"rounds":1,"experiments":[{"name":"e","title":"t","seed":1,"rounds":1,"units":0,`+
		`"outputs":[{"file":"../x","kind":"raw","bytes":%d,"sha256":"%x"}]}]}`+"\n", len(secret), sum)
	if err := os.WriteFile(filepath.Join(out, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(out, t.TempDir(), nil, false)

	req := httptest.NewRequest(http.MethodGet, "/outputs/../x", nil)
	if req.URL.Path != "/outputs/../x" {
		t.Fatalf("request path %q, want it uncleaned", req.URL.Path)
	}
	rec := httptest.NewRecorder()
	s.handleOutput(rec, req)
	if rec.Code == http.StatusOK || strings.Contains(rec.Body.String(), secret) {
		t.Fatalf("handler served ../x: %d %q", rec.Code, rec.Body.String())
	}

	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	for _, path := range []string{"/outputs/../x", "/outputs/..%2Fx"} {
		resp, body := get(t, ts.URL+path, nil)
		if strings.Contains(string(body), secret) {
			t.Fatalf("GET %s served ../x: %d %q", path, resp.StatusCode, body)
		}
	}
}
