// Package metrics is the instrumentation layer of the sweep system: a
// small, allocation-free registry of counters, gauges and duration
// histograms with named handles resolved once at setup, a deterministic
// Snapshot rendered to both JSON and Prometheus text exposition format,
// and a global-off default.
//
// Two disciplines keep it out of the simulation's way:
//
//   - Determinism. Counters live entirely off the RNG and event-ordering
//     paths: recording a count never draws randomness, never schedules an
//     event, never changes what a simulation does. With metrics on, every
//     scenario's traces and the run manifest stay byte-identical to a
//     metrics-off run (test-enforced across all scenario families).
//
//   - Cost. Single-threaded simulation hot paths (the event loop, the
//     radio medium) keep plain uint64 fields on their own structs —
//     cheaper than any branch — and flush them into the shared registry
//     once per round behind a single Enabled() check. Atomics appear only
//     at harness level, where units run concurrently.
//
// Handles are resolved once (typically in a package-level var block) and
// incremented directly; the registry is only scanned by Snapshot.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global collection switch. Off by default: instrumented
// paths that consult it pay one predictable branch (the load compiles to
// a plain MOV on the usual targets) and skip all registry work.
var enabled atomic.Bool

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips global metric collection. Flip it before starting
// work that should be measured; counts recorded while disabled are
// simply never taken (call sites skip their flush).
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing count. Safe for concurrent use;
// single-threaded hot paths should accumulate locally and Add once.
type Counter struct {
	v     atomic.Uint64
	name  string // family name
	label string // label value under the family's label key; "" for none
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the counter's registered (family) name.
func (c *Counter) Name() string { return c.name }

// Gauge is a current-value metric (an int64, which covers every use in
// this system: depths, entry counts, byte totals).
type Gauge struct {
	v    atomic.Int64
	name string
}

// SetMax raises the gauge to v if v is larger — the high-water-mark
// operation. Concurrent raisers converge on the true maximum.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// value returns the current value.
func (g *Gauge) value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// histBuckets are the fixed log-scaled duration bucket bounds, in
// seconds: 1 ms doubling up to ~1049 s. Fixed bounds keep observation
// allocation-free and make every histogram comparable across runs.
var histBuckets = func() []float64 {
	b := make([]float64, 21)
	v := 1e-3
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram (seconds, log-scaled
// bounds; see histBuckets). Observations are lock-free.
type Histogram struct {
	counts [len22]atomic.Uint64 // one per bucket, last is +Inf
	sum    atomic.Uint64        // float64 bits of the running sum
	name   string
}

// len22 is len(histBuckets)+1; Go needs a constant for the array.
const len22 = 22

// observe records a duration in seconds.
func (h *Histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(histBuckets, seconds)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records d.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds()) }

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Registry holds the registered metrics of one process. Registration is
// idempotent by name, so handles can be resolved from several packages
// without coordination; it is cheap but mutex-guarded — resolve handles
// once at setup, not on hot paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter // key: name + "\x00" + label
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// labelKeys maps a counter family name to its label key ("" for
	// plain counters); a family never mixes labelled and plain samples.
	labelKeys map[string]string
	help      map[string]string
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		labelKeys:  make(map[string]string),
		help:       make(map[string]string),
	}
}

// def is the default registry every package-level handle resolves in.
var def = newRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

func (r *Registry) setMeta(name, labelKey, help string) {
	if have, ok := r.labelKeys[name]; ok && have != labelKey {
		panic(fmt.Sprintf("metrics: %s registered with label %q and %q", name, have, labelKey))
	}
	r.labelKeys[name] = labelKey
	if help != "" {
		r.help[name] = help
	}
}

// counter registers (or returns the existing) plain counter name.
func (r *Registry) counter(name, help string) *Counter {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setMeta(name, "", help)
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// labelledCounter registers (or returns the existing) counter sample
// name{labelKey="labelValue"}. All samples of one family must share one
// label key.
func (r *Registry) labelledCounter(name, help, labelKey, labelValue string) *Counter {
	mustValidName(name)
	mustValidName(labelKey)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setMeta(name, labelKey, help)
	key := name + "\x00" + labelValue
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, label: labelValue}
	r.counters[key] = c
	return c
}

// gauge registers (or returns the existing) gauge name.
func (r *Registry) gauge(name, help string) *Gauge {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if help != "" {
		r.help[name] = help
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// histogram registers (or returns the existing) duration histogram name.
func (r *Registry) histogram(name, help string) *Histogram {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if help != "" {
		r.help[name] = help
	}
	h := &Histogram{name: name}
	r.histograms[name] = h
	return h
}

// NewCounter, NewLabelledCounter, NewGauge and NewHistogram resolve
// handles in the default registry — the forms package-level var blocks
// use.
func NewCounter(name, help string) *Counter { return def.counter(name, help) }

// NewLabelledCounter is labelledCounter on the default registry.
func NewLabelledCounter(name, help, labelKey, labelValue string) *Counter {
	return def.labelledCounter(name, help, labelKey, labelValue)
}

// NewGauge is gauge on the default registry.
func NewGauge(name, help string) *Gauge { return def.gauge(name, help) }

// NewHistogram is histogram on the default registry.
func NewHistogram(name, help string) *Histogram { return def.histogram(name, help) }

// mustValidName enforces the Prometheus metric/label name charset, so a
// registered handle can always be rendered.
func mustValidName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*, the
// Prometheus metric name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterSample is one counter value in a snapshot. Label is the value
// under the family's LabelKey; both are empty for plain counters.
type CounterSample struct {
	Name     string `json:"name"`
	LabelKey string `json:"label_key,omitempty"`
	Label    string `json:"label,omitempty"`
	Value    uint64 `json:"value"`
}

// GaugeSample is one gauge value in a snapshot.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSample is one histogram's state in a snapshot. Buckets holds
// cumulative counts per upper bound (Bounds), with the final entry the
// +Inf bucket; Sum is the sum of observations in seconds.
type HistogramSample struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, ordered by name (and
// label within a family) so rendering is deterministic. Help carries the
// registered help strings by family name.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters,omitempty"`
	Gauges     []GaugeSample     `json:"gauges,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
	Help       map[string]string `json:"help,omitempty"`
}

// Snapshot copies the registry's current values. Safe to call at any
// time, including concurrently with recording.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Help: make(map[string]string, len(r.help))}
	for name, help := range r.help {
		s.Help[name] = help
	}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{
			Name:     c.name,
			LabelKey: r.labelKeys[c.name],
			Label:    c.label,
			Value:    c.Value(),
		})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: g.name, Value: g.value()})
	}
	for _, h := range r.histograms {
		hs := HistogramSample{Name: h.name, Bounds: histBuckets}
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i].Load()
			hs.Buckets = append(hs.Buckets, cum)
		}
		hs.Count = cum
		hs.Sum = math.Float64frombits(h.sum.Load())
		s.Histograms = append(s.Histograms, hs)
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return s.Counters[i].Label < s.Counters[j].Label
	})
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// Deterministic returns the snapshot restricted to its deterministic
// sections: counters and gauges (counts of things that happened), never
// histograms (wall-clock durations). This is what a run persists as
// metrics.json — see the determinism contract in the README.
func (s Snapshot) Deterministic() Snapshot {
	out := Snapshot{Counters: s.Counters, Gauges: s.Gauges, Help: s.Help}
	return out
}

// Merge returns s with other's families appended, skipping any family s
// already carries. sweepd uses it to overlay its live serving metrics on
// a run's persisted snapshot without duplicating families that exist
// (with real values) in the run and (as zero-valued registrations) in
// the serving process.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	have := make(map[string]bool)
	for _, c := range s.Counters {
		have[c.Name] = true
	}
	for _, g := range s.Gauges {
		have[g.Name] = true
	}
	for _, h := range s.Histograms {
		have[h.Name] = true
	}
	out := Snapshot{
		Counters:   append([]CounterSample(nil), s.Counters...),
		Gauges:     append([]GaugeSample(nil), s.Gauges...),
		Histograms: append([]HistogramSample(nil), s.Histograms...),
	}
	out.Help = make(map[string]string, len(s.Help))
	for k, v := range s.Help {
		out.Help[k] = v
	}
	for _, c := range other.Counters {
		if !have[c.Name] {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range other.Gauges {
		if !have[g.Name] {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range other.Histograms {
		if !have[h.Name] {
			out.Histograms = append(out.Histograms, h)
		}
	}
	for k, v := range other.Help {
		if _, ok := out.Help[k]; !ok {
			out.Help[k] = v
		}
	}
	out.sort()
	return out
}

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSnapshotJSON parses a snapshot written by WriteJSON. It rejects
// what a registry never produces and WritePrometheus could not render
// as one sample or comment per line: a family or label name outside the
// Prometheus charset, or a help string with a line break.
func ReadSnapshotJSON(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("metrics: snapshot: %w", err)
	}
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, c := range s.Counters {
		names = append(names, c.Name)
		if c.Label != "" || c.LabelKey != "" {
			names = append(names, c.LabelKey)
		}
	}
	for _, g := range s.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range s.Histograms {
		names = append(names, h.Name)
	}
	for _, name := range names {
		if !validName(name) {
			return Snapshot{}, fmt.Errorf("metrics: snapshot: invalid name %q", name)
		}
	}
	for name, help := range s.Help {
		if strings.ContainsAny(help, "\r\n") {
			return Snapshot{}, fmt.Errorf("metrics: snapshot: help for %q spans lines", name)
		}
	}
	s.sort()
	return s, nil
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments per family, then one
// sample line per value, histograms as cumulative _bucket series plus
// _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	lastFamily := ""
	for _, c := range s.Counters {
		if c.Name != lastFamily {
			lastFamily = c.Name
			writeMeta(pf, s.Help, c.Name, "counter")
		}
		if c.Label != "" {
			pf("%s{%s=%q} %d\n", c.Name, c.LabelKey, c.Label, c.Value)
		} else {
			pf("%s %d\n", c.Name, c.Value)
		}
	}
	for _, g := range s.Gauges {
		writeMeta(pf, s.Help, g.Name, "gauge")
		pf("%s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		writeMeta(pf, s.Help, h.Name, "histogram")
		for i, cum := range h.Buckets {
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatBound(h.Bounds[i])
			}
			pf("%s_bucket{le=%q} %d\n", h.Name, le, cum)
		}
		pf("%s_sum %s\n", h.Name, formatBound(h.Sum))
		pf("%s_count %d\n", h.Name, h.Count)
	}
	return err
}

func writeMeta(pf func(string, ...any), help map[string]string, name, typ string) {
	if h := help[name]; h != "" {
		pf("# HELP %s %s\n", name, h)
	}
	pf("# TYPE %s %s\n", name, typ)
}

// formatBound renders a float bucket bound or sum the shortest way that
// round-trips.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
