package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ManifestSchema versions the manifest layout for downstream tooling.
// (/2: outputs carry a typed kind, and everything non-deterministic —
// timestamps, wall-clock timings, worker counts, computed-vs-cached
// provenance — moved to the timings.json sidecar, so two identical runs
// produce byte-identical manifests at any worker count.)
const ManifestSchema = 2

// Manifest is the machine-readable record of one harness run, written to
// <out>/manifest.json. It is a pure function of the run's inputs: output
// hashes let tooling verify byte-identical reproduction across worker
// counts and code changes, and byte-comparing two manifests is the
// sweep-level identity check.
type Manifest struct {
	Schema int   `json:"schema"`
	Seed   int64 `json:"seed"`
	Rounds int   `json:"rounds"`
	// Experiments appear in execution order.
	Experiments []*ExperimentRecord `json:"experiments"`
}

// ExperimentRecord describes one executed experiment.
type ExperimentRecord struct {
	Name   string `json:"name"`
	Title  string `json:"title"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// Points summarises the work decomposition: one entry per
	// (scenario, parameter-point) pair, in submission order.
	Points []*PointRecord `json:"points,omitempty"`
	// Units is the total number of independent work units resolved
	// (computed or loaded from the result store).
	Units int `json:"units"`
	// Outputs lists the files the experiment wrote, in write order.
	Outputs []*OutputRecord `json:"outputs,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// PointRecord is one parameter point of one scenario.
type PointRecord struct {
	Scenario string `json:"scenario"`
	Point    string `json:"point"`
	Rounds   int    `json:"rounds"`
}

// OutputKind classifies an emitted output so the results API can serve
// correct content types without sniffing.
type OutputKind string

const (
	// OutputRaw is a plain-text report.
	OutputRaw OutputKind = "raw"
	// OutputTable is a gnuplot-ready data series.
	OutputTable OutputKind = "table"
	// OutputPlot is a rendered SVG figure.
	OutputPlot OutputKind = "plot"
)

// valid reports whether k is one of the declared kinds.
func (k OutputKind) valid() bool {
	switch k {
	case OutputRaw, OutputTable, OutputPlot:
		return true
	}
	return false
}

// ContentType returns the HTTP content type the kind serves under.
func (k OutputKind) ContentType() string {
	if k == OutputPlot {
		return "image/svg+xml"
	}
	return "text/plain; charset=utf-8"
}

// OutputRecord is one file written by an experiment.
type OutputRecord struct {
	File   string     `json:"file"`
	Kind   OutputKind `json:"kind"`
	Bytes  int        `json:"bytes"`
	SHA256 string     `json:"sha256"`
}

// Timings is the non-deterministic sidecar of a run, written to
// <out>/timings.json: when it ran, how wide, how long each experiment
// took, and how many units were computed versus served from the result
// store. Everything here is provenance, never content — byte-comparing
// manifests must not depend on it.
type Timings struct {
	Schema      int                 `json:"schema"`
	GeneratedAt string              `json:"generated_at"`
	Workers     int                 `json:"workers"`
	CodeDigest  string              `json:"code_digest"`
	Experiments []*ExperimentTiming `json:"experiments"`
}

// ExperimentTiming is one experiment's provenance.
type ExperimentTiming struct {
	Name   string `json:"name"`
	WallMS int64  `json:"wall_ms"`
	// UnitsComputed counts units this run actually simulated;
	// UnitsCached counts units loaded from the result store. Their sum
	// is the manifest record's Units.
	UnitsComputed int `json:"units_computed"`
	UnitsCached   int `json:"units_cached"`
	// Retries counts unit attempts that failed and were re-run; Failed
	// lists units that still failed after their retry, with stacks when
	// the failure was a recovered panic; Hung lists units flagged by the
	// -unit-timeout watchdog (they may have finished later — the
	// watchdog flags, never kills). All are provenance: failures also
	// surface deterministically in the manifest record's Error.
	Retries int           `json:"retries,omitempty"`
	Failed  []*FailedUnit `json:"failed,omitempty"`
	Hung    []string      `json:"hung,omitempty"`
}

// FailedUnit records one work unit that failed after its retry.
type FailedUnit struct {
	Unit     string `json:"unit"`
	Error    string `json:"error"`
	Stack    string `json:"stack,omitempty"`
	Attempts int    `json:"attempts"`
}

// write serialises the manifest to path with a trailing newline.
func (m *Manifest) write(path string) error {
	return writeJSON(path, m)
}

// ParseManifest decodes the bytes of a manifest.json. It rejects null
// records, which every consumer would dereference, and any output name
// Context.Emit would refuse: consumers (sweepd) join the name onto the
// output directory.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	for _, e := range m.Experiments {
		if e == nil || slices.Contains(e.Points, nil) || slices.Contains(e.Outputs, nil) {
			return nil, errNullRecord
		}
		for _, o := range e.Outputs {
			if err := checkOutputName(o.File); err != nil {
				return nil, err
			}
		}
	}
	return &m, nil
}

// checkOutputName rejects an output name that is not a plain file name
// inside the output directory: empty, holding a path separator, or
// starting with "." (which covers ".." and the ".<name>.tmp" temps).
func checkOutputName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("output name %q is not a plain file name", name)
	}
	return nil
}

// write serialises the timings sidecar to path.
func (t *Timings) write(path string) error {
	return writeJSON(path, t)
}

// ReadTimings loads a timings sidecar. Like ParseManifest, it rejects
// null records.
func ReadTimings(path string) (*Timings, error) {
	return readParsed(path, func(data []byte) (*Timings, error) {
		var t Timings
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, err
		}
		for _, e := range t.Experiments {
			if e == nil || slices.Contains(e.Failed, nil) {
				return nil, errNullRecord
			}
		}
		return &t, nil
	})
}

var errNullRecord = errors.New("null record")

// readParsed reads path and parses its bytes, naming the file in any
// error.
func readParsed[T any](path string, parse func([]byte) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err == nil {
		var v T
		if v, err = parse(data); err == nil {
			return v, nil
		}
	}
	return *new(T), fmt.Errorf("harness: %s: %w", filepath.Base(path), err)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = writeFileAtomic(path, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("harness: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// writeFileAtomic publishes data at path through a temp file in the same
// directory and a rename, so a reader of path (sweepd, serving a
// directory a sweep is still writing) sees the old file or the new one,
// never a torn one. The temp has a fixed name and is created like
// os.WriteFile (mode 0644 less the umask), so a temp left by a crash is
// overwritten and renamed away by the next write of path; one runner
// writes an output directory, so no two writers share the temp. The
// temp is removed on failure.
func writeFileAtomic(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func newOutputRecord(name string, kind OutputKind, content []byte) *OutputRecord {
	sum := sha256.Sum256(content)
	return &OutputRecord{File: name, Kind: kind, Bytes: len(content), SHA256: hex.EncodeToString(sum[:])}
}
