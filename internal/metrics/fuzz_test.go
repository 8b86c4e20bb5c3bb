package metrics

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadSnapshotJSON runs arbitrary bytes through the path sweepd
// serves a sweep's metrics.json on: ReadSnapshotJSON, Merge over a live
// registry's snapshot, WritePrometheus. Nothing may panic, and an
// accepted snapshot must render deterministically as well-formed
// Prometheus text (see checkExposition). The seed corpus
// (testdata/fuzz/FuzzReadSnapshotJSON) holds a real metrics.json, a
// histogram snapshot and malformed names and help strings.
func FuzzReadSnapshotJSON(f *testing.F) {
	live := newRegistry()
	live.counter("live_requests_total", "requests served").Inc()
	live.labelledCounter("live_status_total", "responses by code", "code", "200").Add(2)
	live.gauge("live_in_flight", "requests in flight").set(1)
	live.histogram("live_request_seconds", "request latency").observe(0.01)
	liveSnap := live.Snapshot()

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshotJSON(data)
		if err != nil {
			return
		}
		render := func() string {
			var buf bytes.Buffer
			if err := s.Merge(liveSnap).WritePrometheus(&buf); err != nil {
				t.Fatalf("rendering an accepted snapshot: %v", err)
			}
			return buf.String()
		}
		text := render()
		if render() != text {
			t.Fatal("rendering is not deterministic")
		}
		if err := checkExposition(text); err != nil {
			t.Fatalf("%v in:\n%s", err, text)
		}
	})
}

// checkExposition checks Prometheus text line by line: every family is
// typed once, a # HELP comment directly precedes its family's # TYPE,
// and every other line is one sample — a valid name, at most one label
// with a valid name and a quoted value, a space and a number.
func checkExposition(text string) error {
	typed := make(map[string]bool)
	helped := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if !validName(name) || helped != "" {
				return fmt.Errorf("malformed help line %q", line)
			}
			helped = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if !validName(name) || typed[name] || (helped != "" && helped != name) ||
				(typ != "counter" && typ != "gauge" && typ != "histogram") {
				return fmt.Errorf("malformed type line %q", line)
			}
			typed[name], helped = true, ""
			continue
		}
		if helped != "" || !wellFormedSample(line) {
			return fmt.Errorf("malformed sample line %q", line)
		}
	}
	return nil
}

func wellFormedSample(line string) bool {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 || !validName(line[:end]) {
		return false
	}
	rest := line[end:]
	if labels, ok := strings.CutPrefix(rest, "{"); ok {
		key, value, ok := strings.Cut(labels, "=")
		if !ok || !validName(key) {
			return false
		}
		quoted, err := strconv.QuotedPrefix(value)
		if err != nil {
			return false
		}
		if rest, ok = strings.CutPrefix(value[len(quoted):], "}"); !ok {
			return false
		}
	}
	number, ok := strings.CutPrefix(rest, " ")
	_, err := strconv.ParseFloat(number, 64)
	return ok && err == nil
}
