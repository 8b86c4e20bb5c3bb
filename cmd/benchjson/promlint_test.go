package main

// The -promlint mode runs metrics.LintPrometheus; these tests pin the
// linter's verdicts at the command that CI calls.

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

const validExposition = `# HELP sim_events_processed_total events whose callbacks ran
# TYPE sim_events_processed_total counter
sim_events_processed_total 4242
# HELP mac_drops_total frames not delivered, by cause
# TYPE mac_drops_total counter
mac_drops_total{cause="collision"} 7
mac_drops_total{cause="half-duplex"} 0
# HELP sim_heap_depth_high_water deepest queue depth
# TYPE sim_heap_depth_high_water gauge
sim_heap_depth_high_water 19
# HELP harness_unit_wall_seconds wall time per unit
# TYPE harness_unit_wall_seconds histogram
harness_unit_wall_seconds_bucket{le="0.001"} 0
harness_unit_wall_seconds_bucket{le="1"} 3
harness_unit_wall_seconds_bucket{le="+Inf"} 4
harness_unit_wall_seconds_sum 2.75
harness_unit_wall_seconds_count 4
`

func TestPromlintAcceptsValidExposition(t *testing.T) {
	if err := metrics.LintPrometheus(strings.NewReader(validExposition), nil); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestPromlintNonzero(t *testing.T) {
	ok := []string{"sim_events_processed_total", "mac_drops_total", "harness_unit_wall_seconds"}
	if err := metrics.LintPrometheus(strings.NewReader(validExposition), ok); err != nil {
		t.Fatalf("nonzero families rejected: %v", err)
	}
	// An all-zero family fails even though it has samples...
	err := metrics.LintPrometheus(strings.NewReader(validExposition+
		"# HELP dead_total never incremented\n# TYPE dead_total counter\ndead_total 0\n"),
		[]string{"dead_total"})
	if err == nil || !strings.Contains(err.Error(), "all-zero") {
		t.Fatalf("all-zero family passed: %v", err)
	}
	// ...and an absent family fails outright.
	err = metrics.LintPrometheus(strings.NewReader(validExposition), []string{"no_such_total"})
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("absent family passed: %v", err)
	}
}

func TestPromlintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"empty", "", "no samples"},
		{"sample without TYPE", "orphan_total 1\n", "no # TYPE"},
		{"sample without HELP", "# TYPE h_total counter\nh_total 1\n", "no # HELP"},
		{"TYPE after samples",
			"# HELP x_total x\nx_total 1\n# TYPE x_total counter\n", "after its samples"},
		{"duplicate TYPE",
			"# HELP x_total x\n# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n", "duplicate TYPE"},
		{"unknown type",
			"# HELP x_total x\n# TYPE x_total countre\nx_total 1\n", "unknown type"},
		{"bad metric name", "# HELP 9bad x\n", "invalid metric name"},
		{"bad value",
			"# HELP x_total x\n# TYPE x_total counter\nx_total one\n", "bad value"},
		{"unterminated labels",
			"# HELP x_total x\n# TYPE x_total counter\nx_total{cause=\"collision\" 1\n", "unterminated"},
		{"unquoted label value",
			"# HELP x_total x\n# TYPE x_total counter\nx_total{cause=collision} 1\n", "unquoted"},
		{"foreign histogram series",
			"# HELP h_seconds x\n# TYPE h_seconds histogram\nh_seconds_bucket{le=\"+Inf\"} 1\nh_seconds_max 9\n", "foreign series"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := metrics.LintPrometheus(strings.NewReader(tc.text), nil)
			if err == nil {
				t.Fatalf("accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestPromlintAcceptsRealRegistryOutput pipes an actual registry
// rendering through the linter, so the exposition writer and its CI
// gate can never drift apart silently.
func TestPromlintAcceptsRealRegistryOutput(t *testing.T) {
	// Rendered by internal/metrics.WritePrometheus in the sweepd smoke;
	// this is a captured-shape equivalent including a labelled family
	// and histogram series.
	real := `# HELP mac_drops_total frames not delivered to a receiver, by cause
# TYPE mac_drops_total counter
mac_drops_total{cause="channel"} 1799
mac_drops_total{cause="collision"} 23
# HELP harness_unit_wall_seconds wall time per work unit (cached loads included)
# TYPE harness_unit_wall_seconds histogram
harness_unit_wall_seconds_bucket{le="0.001"} 0
harness_unit_wall_seconds_bucket{le="0.002"} 0
harness_unit_wall_seconds_bucket{le="+Inf"} 2
harness_unit_wall_seconds_sum 1.40625
harness_unit_wall_seconds_count 2
`
	if err := metrics.LintPrometheus(strings.NewReader(real), []string{"mac_drops_total"}); err != nil {
		t.Fatalf("registry-shaped exposition rejected: %v", err)
	}
}
