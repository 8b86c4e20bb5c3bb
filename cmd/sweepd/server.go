package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
)

// server serves one sweep output directory over HTTP. Everything it
// serves is content-addressed: output ETags come from the manifest's
// SHA-256 hashes (computed by the harness at write time, never
// re-hashed here), so a million conditional GETs against an unchanged
// sweep cost one stat and a 304 each.
//
// The manifest is reloaded when manifest.json changes on disk
// (mtime+size), so a sweepd can sit on a store directory while
// experiment processes keep appending results behind it.
type server struct {
	outDir   string
	benchDir string
	store    *harness.ResultStore // nil: no store endpoints
	debug    bool                 // mount net/http/pprof under /debug/pprof/
	started  time.Time            // process start, for /api/healthz uptime

	mu          sync.Mutex
	manifest    *harness.Manifest
	manifestRaw []byte
	manifestTag string
	manifestMod time.Time
	manifestLen int64
	outputs     map[string]outputInfo
}

// outputInfo is the serving metadata of one manifest-recorded output.
type outputInfo struct {
	kind       harness.OutputKind
	etag       string
	experiment string
}

func newServer(outDir, benchDir string, store *harness.ResultStore, debug bool) *server {
	return &server{outDir: outDir, benchDir: benchDir, store: store, debug: debug, started: time.Now()}
}

// routes builds the handler tree. Paths are matched manually (prefix
// handlers) so the binary stays go1.21-compatible.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/healthz", s.handleHealthz)
	mux.HandleFunc("/api/catalogue", s.handleCatalogue)
	mux.HandleFunc("/api/manifest", s.handleManifest)
	mux.HandleFunc("/api/store", s.handleStore)
	mux.HandleFunc("/api/metrics", s.handleMetrics)
	mux.HandleFunc("/api/progress", s.handleProgress)
	mux.HandleFunc("/outputs/", s.handleOutput)
	mux.HandleFunc("/bench/", s.handleBench)
	mux.HandleFunc("/", s.handleIndex)
	if s.debug {
		// net/http/pprof registers its handlers on the default mux at
		// import; mounting that mux under the readOnly guard exposes them
		// without letting profiling URLs leak into production serving.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return s.recoverPanics(s.readOnly(mux))
}

// routeList names every mounted route pattern, for the index document
// (and for knownRoute, which derives method semantics from it).
func (s *server) routeList() []string {
	routes := []string{
		"/healthz",
		"/api/healthz",
		"/api/catalogue",
		"/api/manifest",
		"/api/store",
		"/api/metrics",
		"/api/progress",
		"/outputs/<file>",
		"/bench/",
	}
	if s.debug {
		routes = append(routes, "/debug/pprof/")
	}
	return routes
}

// knownRoute reports whether path falls under a mounted route, so the
// readOnly guard can distinguish a wrong method on a real endpoint (405
// with Allow) from a path that does not exist at all (404).
func (s *server) knownRoute(path string) bool {
	switch path {
	case "/", "/healthz", "/api/healthz", "/api/catalogue", "/api/manifest",
		"/api/store", "/api/metrics", "/api/progress":
		return true
	}
	if strings.HasPrefix(path, "/outputs/") || strings.HasPrefix(path, "/bench/") {
		return true
	}
	return s.debug && strings.HasPrefix(path, "/debug/pprof/")
}

// readOnly rejects every method except GET and HEAD on known routes —
// the sweep producer writes through the filesystem, never through the
// API — and 404s unknown paths whatever the method. It also counts
// every request into the registry.
func (s *server) readOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			if !s.knownRoute(r.URL.Path) {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "read-only API", http.StatusMethodNotAllowed)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// recoverPanics is the outermost middleware: a panicking handler
// answers 500 (when nothing has been written yet) instead of tearing
// down the connection — and never the process; net/http would contain
// the panic to one connection, but an operator still wants the count
// and the stack. http.ErrAbortHandler keeps its meaning.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			mPanics.Inc()
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness/readiness probe: always 200 while the
// process serves, with the manifest state and uptime as the payload —
// a load balancer keys on the status, an operator on the body.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	loaded := s.refresh() == nil
	s.mu.Lock()
	experiments := 0
	if s.manifest != nil {
		experiments = len(s.manifest.Experiments)
	}
	s.mu.Unlock()
	s.serveJSON(w, r, map[string]any{
		"status":          "ok",
		"manifest_loaded": loaded,
		"experiments":     experiments,
		"uptime_seconds":  int64(time.Since(s.started).Seconds()),
	})
}

// refresh loads (or reloads) manifest.json when it changed on disk.
// Callers hold no lock; refresh takes it.
func (s *server) refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.outDir, "manifest.json")
	// Stat and read one open file: the harness replaces the manifest by
	// rename, so the stamp, the bytes (and their ETag) and the parsed
	// catalogue all describe one version.
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("no manifest at %s (run a sweep first): %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if s.manifest != nil && info.ModTime().Equal(s.manifestMod) && info.Size() == s.manifestLen {
		return nil
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	m, err := harness.ParseManifest(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	outputs := make(map[string]outputInfo)
	for _, exp := range m.Experiments {
		for _, out := range exp.Outputs {
			outputs[out.File] = outputInfo{
				kind:       out.Kind,
				etag:       etagFor(out.SHA256),
				experiment: exp.Name,
			}
		}
	}
	sum := sha256.Sum256(raw)
	s.manifest, s.manifestRaw = m, raw
	s.manifestTag = etagFor(hex.EncodeToString(sum[:]))
	s.manifestMod, s.manifestLen = info.ModTime(), info.Size()
	s.outputs = outputs
	return nil
}

// etagFor wraps a content hash as a strong ETag.
func etagFor(hash string) string { return `"` + hash + `"` }

// etagMatch implements If-None-Match: a comma-separated list of entity
// tags, each possibly weak-prefixed, or the wildcard.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// serveContent writes body under its content-addressed ETag, answering
// a matching If-None-Match with 304 and no body.
func serveContent(w http.ResponseWriter, r *http.Request, etag, contentType string, body []byte) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-cache") // revalidate; the ETag makes it cheap
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(body)
}

func (s *server) serveJSON(w http.ResponseWriter, r *http.Request, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	sum := sha256.Sum256(data)
	serveContent(w, r, etagFor(hex.EncodeToString(sum[:])), "application/json", data)
}

// handleIndex names the endpoints; anything else under / is a 404.
func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.serveJSON(w, r, map[string]any{
		"service":   "sweepd",
		"endpoints": s.routeList(),
	})
}

// catalogue is the API shape of the manifest: every experiment with its
// outputs addressable by URL and ETag.
type catalogue struct {
	Schema      int               `json:"schema"`
	Seed        int64             `json:"seed"`
	Rounds      int               `json:"rounds"`
	Experiments []catalogueRecord `json:"experiments"`
}

type catalogueRecord struct {
	Name    string            `json:"name"`
	Title   string            `json:"title"`
	Units   int               `json:"units"`
	Error   string            `json:"error,omitempty"`
	Outputs []catalogueOutput `json:"outputs,omitempty"`
}

type catalogueOutput struct {
	File  string             `json:"file"`
	Kind  harness.OutputKind `json:"kind"`
	Bytes int                `json:"bytes"`
	ETag  string             `json:"etag"`
	URL   string             `json:"url"`
}

func (s *server) handleCatalogue(w http.ResponseWriter, r *http.Request) {
	if err := s.refresh(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	m := s.manifest
	s.mu.Unlock()
	cat := catalogue{Schema: m.Schema, Seed: m.Seed, Rounds: m.Rounds}
	for _, exp := range m.Experiments {
		rec := catalogueRecord{Name: exp.Name, Title: exp.Title, Units: exp.Units, Error: exp.Error}
		for _, out := range exp.Outputs {
			rec.Outputs = append(rec.Outputs, catalogueOutput{
				File:  out.File,
				Kind:  out.Kind,
				Bytes: out.Bytes,
				ETag:  etagFor(out.SHA256),
				URL:   "/outputs/" + out.File,
			})
		}
		cat.Experiments = append(cat.Experiments, rec)
	}
	s.serveJSON(w, r, cat)
}

func (s *server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if err := s.refresh(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	raw, tag := s.manifestRaw, s.manifestTag
	s.mu.Unlock()
	serveContent(w, r, tag, "application/json", raw)
}

func (s *server) handleStore(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "no result store configured (-result-store)", http.StatusNotFound)
		return
	}
	s.serveJSON(w, r, s.store.Summary())
}

// handleOutput serves one manifest-recorded study output. The manifest
// is the allowlist: a file on disk but not in the manifest does not
// exist for the API. harness.ParseManifest admits only plain file names,
// so no listed name joins onto a path outside the output directory.
func (s *server) handleOutput(w http.ResponseWriter, r *http.Request) {
	if err := s.refresh(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/outputs/")
	s.mu.Lock()
	info, ok := s.outputs[name]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	body, err := os.ReadFile(filepath.Join(s.outDir, name))
	if err != nil {
		http.Error(w, fmt.Sprintf("manifest lists %s but: %v", name, err), http.StatusInternalServerError)
		return
	}
	serveContent(w, r, info.etag, info.kind.ContentType(), body)
}

// handleBench lists and serves the committed BENCH_<n>.json perf
// snapshots — the natural API home for the project's bench artifacts.
func (s *server) handleBench(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/bench/")
	if name == "" {
		ents, err := os.ReadDir(s.benchDir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		var names []string
		for _, e := range ents {
			if benchArtifact(e.Name()) {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		s.serveJSON(w, r, map[string]any{"artifacts": names})
		return
	}
	if !benchArtifact(name) || name != filepath.Base(name) {
		http.NotFound(w, r)
		return
	}
	body, err := os.ReadFile(filepath.Join(s.benchDir, name))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	sum := sha256.Sum256(body)
	serveContent(w, r, etagFor(hex.EncodeToString(sum[:])), "application/json", body)
}

// benchArtifact matches the committed BENCH_<n>.json snapshot names.
func benchArtifact(name string) bool {
	return strings.HasPrefix(name, "BENCH_") && strings.HasSuffix(name, ".json")
}
