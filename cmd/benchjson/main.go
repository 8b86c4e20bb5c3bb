// Command benchjson converts `go test -bench` text output on stdin into
// machine-readable JSON on stdout, so benchmark runs can be committed
// (BENCH_*.json) and diffed across PRs to track the perf trajectory.
//
//	go test -run=NONE -bench=. -benchtime=1x . | go run ./cmd/benchjson
//
// With -compare it instead diffs two committed snapshots and fails (exit
// 1) when any benchmark present in both regressed its ns/op or allocs/op
// by more than -factor:
//
//	go run ./cmd/benchjson -compare BENCH_2.json BENCH_3.json
//
// With no operands, -compare auto-selects the two newest BENCH_<n>.json
// files in the current directory (by numeric suffix), so the CI gate
// tracks the latest committed pair without per-PR Makefile edits:
//
//	go run ./cmd/benchjson -compare
//
// With -promlint it instead validates Prometheus text exposition on
// stdin — the CI gate over sweepd's /api/metrics — and with -nonzero
// additionally requires the named metric families to carry a positive
// sample:
//
//	curl -s host:8080/api/metrics | go run ./cmd/benchjson -promlint \
//	    -nonzero sim_events_processed_total,result_store_hits_total
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Result is one parsed benchmark line: the owning package, the name
// (with the -N GOMAXPROCS suffix stripped), its iteration count, and
// every reported metric (ns/op, B/op, allocs/op and custom ReportMetric
// units) keyed by unit.
type Result struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the full document. Multi-package runs (`go test -bench ./...`)
// are supported: each benchmark carries the `pkg:` header in force when
// its line appeared.
type Report struct {
	Schema     string   `json:"schema"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Parse reads `go test -bench` output and collects header fields and
// benchmark lines. Unparseable lines are skipped: test chatter (PASS, ok,
// --- output) is expected in the stream.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: "bench/1"}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseBenchLine(line); ok {
				res.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one line of the form
//
//	BenchmarkName-8   12   98.7 ns/op   3 B/op   1 allocs/op   4.2 custom_unit
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := Result{Name: name, Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}

// gatedMetrics are the per-benchmark metrics the -compare gate watches,
// each under the same >factor growth rule: wall time and allocation
// count. B/op is deliberately not gated — byte volume scales with pooled
// buffer capacities and is too noisy across workload tweaks, while the
// allocation COUNT is the hot-path discipline the perf work defends.
var gatedMetrics = []string{"ns/op", "allocs/op"}

// Regression is one benchmark metric that worsened past the factor.
type Regression struct {
	Name   string
	Metric string
	Old    float64
	New    float64
	Factor float64
}

// benchKey identifies a benchmark across snapshots. The package qualifier
// keeps same-named benchmarks in different packages apart.
func benchKey(r Result) string {
	if r.Pkg == "" {
		return r.Name
	}
	return r.Pkg + "." + r.Name
}

// Compare diffs the shared benchmarks of two reports and returns every
// gated metric (ns/op, allocs/op) that grew by more than factor.
// Benchmarks — or metrics — present in only one snapshot (added, retired,
// or a run without -benchmem) are ignored: the gate is about regressions,
// not catalogue churn.
func Compare(old, new *Report, factor float64) []Regression {
	type metricKey struct {
		bench, metric string
	}
	oldVals := make(map[metricKey]float64)
	for _, b := range old.Benchmarks {
		for _, m := range gatedMetrics {
			if v, ok := b.Metrics[m]; ok && v > 0 {
				oldVals[metricKey{benchKey(b), m}] = v
			}
		}
	}
	var regs []Regression
	for _, b := range new.Benchmarks {
		for _, m := range gatedMetrics {
			v, ok := b.Metrics[m]
			if !ok || v <= 0 {
				continue
			}
			prev, shared := oldVals[metricKey{benchKey(b), m}]
			if !shared {
				continue
			}
			if v > prev*factor {
				regs = append(regs, Regression{
					Name: benchKey(b), Metric: m, Old: prev, New: v, Factor: v / prev,
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Factor != regs[j].Factor {
			return regs[i].Factor > regs[j].Factor
		}
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func runCompare(oldPath, newPath string, factor float64) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	regs := Compare(old, newRep, factor)
	shared := 0
	oldNames := make(map[string]bool, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldNames[benchKey(b)] = true
	}
	for _, b := range newRep.Benchmarks {
		if oldNames[benchKey(b)] {
			shared++
		}
	}
	fmt.Printf("benchjson: %d shared benchmarks (%s -> %s), regression factor %.1fx on %v\n",
		shared, oldPath, newPath, factor, gatedMetrics)
	if len(regs) == 0 {
		fmt.Println("benchjson: no regressions")
		return nil
	}
	for _, r := range regs {
		fmt.Printf("  REGRESSION %-60s %12.0f -> %12.0f %s (%.2fx)\n", r.Name, r.Old, r.New, r.Metric, r.Factor)
	}
	return fmt.Errorf("%d benchmark metric(s) regressed more than %.1fx", len(regs), factor)
}

// newestSnapshots picks the two newest committed BENCH_<n>.json files by
// their numeric suffix, so the Makefile's bench-compare gate always diffs
// the latest pair without anyone editing the target each PR.
func newestSnapshots(names []string) (oldPath, newPath string, err error) {
	type snap struct {
		n    int
		name string
	}
	var snaps []snap
	for _, name := range names {
		base := filepath.Base(name)
		if !strings.HasPrefix(base, "BENCH_") || !strings.HasSuffix(base, ".json") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json"))
		if err != nil {
			continue
		}
		snaps = append(snaps, snap{n: n, name: name})
	}
	if len(snaps) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<n>.json snapshots, found %d", len(snaps))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].n < snaps[j].n })
	return snaps[len(snaps)-2].name, snaps[len(snaps)-1].name, nil
}

// autoSnapshots globs the current directory for snapshots.
func autoSnapshots() (string, string, error) {
	names, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", "", err
	}
	return newestSnapshots(names)
}

func main() {
	var (
		compare  = flag.Bool("compare", false, "compare two BENCH_*.json snapshots instead of converting stdin")
		factor   = flag.Float64("factor", 2, "ns/op growth beyond which -compare reports a regression")
		promlint = flag.Bool("promlint", false, "validate Prometheus text exposition on stdin instead of converting bench output")
		nonzero  = flag.String("nonzero", "", "comma-separated metric families -promlint requires a positive sample in")
	)
	flag.Parse()

	if *promlint {
		var req []string
		for _, name := range strings.Split(*nonzero, ",") {
			if name = strings.TrimSpace(name); name != "" {
				req = append(req, name)
			}
		}
		if err := metrics.LintPrometheus(os.Stdin, req); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: promlint: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("benchjson: exposition ok")
		return
	}

	if *compare {
		var oldPath, newPath string
		switch flag.NArg() {
		case 0:
			// No operands: gate the two newest committed snapshots, so
			// the comparison can never silently go stale as BENCH_<n>
			// files accumulate PR over PR.
			var err error
			if oldPath, newPath, err = autoSnapshots(); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(2)
			}
		case 2:
			oldPath, newPath = flag.Arg(0), flag.Arg(1)
		default:
			fmt.Fprintln(os.Stderr, "benchjson: -compare takes two snapshot files, or none to auto-select the two newest BENCH_<n>.json")
			os.Exit(2)
		}
		if err := runCompare(oldPath, newPath, *factor); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
