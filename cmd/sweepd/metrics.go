package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// sweepd's own telemetry: request counts by endpoint group. The registry
// is always enabled in this process (there is no determinism contract to
// protect on the serving side — simulations never run here).
var mRequests = metrics.NewLabelledCounter("sweepd_http_requests_total",
	"HTTP requests served, by endpoint group", "route", "all")

// mPanics counts handler panics recovered by the 500 middleware — on a
// healthy service this stays at zero, so any movement is a page.
var mPanics = metrics.NewCounter("sweepd_panics_total",
	"HTTP handler panics recovered and answered with 500")

// PrometheusContentType is the exposition-format content type
// /api/metrics serves by default.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics serves the merged metrics view: the sweep's persisted
// metrics.json (written by cmd/experiments -metrics, reloaded from disk
// on every request so a re-run sweep shows up immediately) layered over
// this process's live registry. The run's families win — sweepd links
// the same instrumented packages, so its own zero-valued registrations
// of sim/mac/store counters would otherwise shadow the sweep's counts.
//
// Content negotiation: Prometheus text exposition by default (the scrape
// format), JSON when the Accept header asks for application/json.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := metrics.Default().Snapshot()
	if data, err := os.ReadFile(filepath.Join(s.outDir, harness.MetricsFile)); err == nil {
		if fileSnap, err := metrics.ReadSnapshotJSON(data); err == nil {
			snap = fileSnap.Merge(snap)
		}
	}
	var buf bytes.Buffer
	var contentType string
	var err error
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		contentType = "application/json"
		err = snap.WriteJSON(&buf)
	} else {
		contentType = PrometheusContentType
		err = snap.WritePrometheus(&buf)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	serveContent(w, r, etagFor(hex.EncodeToString(sum[:])), contentType, buf.Bytes())
}

// progressView is the /api/progress response: how complete the sweep on
// disk is, assembled from the manifest (unit decomposition), the timings
// sidecar (computed-vs-cached splits, wall times) and the result store.
// A sweep still running behind sweepd shows its manifest-recorded
// experiments grow as the producer rewrites the files.
type progressView struct {
	Schema        int                   `json:"schema"`
	GeneratedAt   string                `json:"generated_at,omitempty"`
	Workers       int                   `json:"workers,omitempty"`
	UnitsTotal    int                   `json:"units_total"`
	UnitsComputed int                   `json:"units_computed"`
	UnitsCached   int                   `json:"units_cached"`
	WallMS        int64                 `json:"wall_ms"`
	Experiments   []progressExperiment  `json:"experiments"`
	Store         *harness.StoreSummary `json:"store,omitempty"`
}

type progressExperiment struct {
	Name          string `json:"name"`
	Units         int    `json:"units"`
	UnitsComputed int    `json:"units_computed"`
	UnitsCached   int    `json:"units_cached"`
	WallMS        int64  `json:"wall_ms"`
	Error         string `json:"error,omitempty"`
}

func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if err := s.refresh(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	m := s.manifest
	s.mu.Unlock()

	view := progressView{Schema: m.Schema}
	byName := make(map[string]*harness.ExperimentTiming)
	if tim, err := harness.ReadTimings(filepath.Join(s.outDir, "timings.json")); err == nil {
		view.GeneratedAt = tim.GeneratedAt
		view.Workers = tim.Workers
		for _, t := range tim.Experiments {
			byName[t.Name] = t
		}
	}
	for _, exp := range m.Experiments {
		pe := progressExperiment{Name: exp.Name, Units: exp.Units, Error: exp.Error}
		if t, ok := byName[exp.Name]; ok {
			pe.UnitsComputed = t.UnitsComputed
			pe.UnitsCached = t.UnitsCached
			pe.WallMS = t.WallMS
		}
		view.UnitsTotal += pe.Units
		view.UnitsComputed += pe.UnitsComputed
		view.UnitsCached += pe.UnitsCached
		view.WallMS += pe.WallMS
		view.Experiments = append(view.Experiments, pe)
	}
	if s.store != nil {
		sum := s.store.Summary()
		view.Store = &sum
	}
	s.serveJSON(w, r, view)
}
