package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// set stores v.
func (g *Gauge) set(v int64) { g.v.Store(v) }

func TestCounterRegistrationIdempotent(t *testing.T) {
	r := newRegistry()
	a := r.counter("test_total", "help")
	b := r.counter("test_total", "")
	if a != b {
		t.Fatal("same name resolved two handles")
	}
	a.Add(3)
	b.Inc()
	if got := a.Value(); got != 4 {
		t.Fatalf("value = %d, want 4", got)
	}
}

func TestLabelledCounterFamilies(t *testing.T) {
	r := newRegistry()
	a := r.labelledCounter("drops_total", "drops", "cause", "collision")
	b := r.labelledCounter("drops_total", "", "cause", "channel")
	if a == b {
		t.Fatal("different label values share a handle")
	}
	if r.labelledCounter("drops_total", "", "cause", "collision") != a {
		t.Fatal("same label value resolved a new handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixing label keys in one family did not panic")
		}
	}()
	r.labelledCounter("drops_total", "", "reason", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := newRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed", "ütf"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.counter(bad, "")
		}()
	}
	for _, good := range []string{"a", "_x", "ns:sub_total", "A9_b"} {
		if !validName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := newRegistry()
	g := r.gauge("depth_high_water", "")
	g.SetMax(5)
	g.SetMax(3)
	if got := g.value(); got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	g.SetMax(9)
	if got := g.value(); got != 9 {
		t.Fatalf("value = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := newRegistry()
	h := r.histogram("unit_seconds", "")
	h.observe(0.0005)              // below the first bound -> bucket 0
	h.ObserveDuration(time.Second) // exactly the 1s bound -> its bucket (le is inclusive)
	h.observe(1e6)                 // beyond every bound -> +Inf only
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hs := s.Histograms[0]
	if hs.Count != 3 {
		t.Fatalf("count = %d, want 3", hs.Count)
	}
	if got, want := hs.Sum, 0.0005+1+1e6; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if len(hs.Buckets) != len(hs.Bounds)+1 {
		t.Fatalf("buckets = %d, bounds = %d", len(hs.Buckets), len(hs.Bounds))
	}
	if hs.Buckets[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", hs.Buckets[0])
	}
	// Cumulative: every bucket >= its predecessor, +Inf holds everything.
	for i := 1; i < len(hs.Buckets); i++ {
		if hs.Buckets[i] < hs.Buckets[i-1] {
			t.Fatalf("bucket %d (%d) < bucket %d (%d)", i, hs.Buckets[i], i-1, hs.Buckets[i-1])
		}
	}
	if last := hs.Buckets[len(hs.Buckets)-1]; last != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", last)
	}
	// The 1 s observation must land at the le="1" bound, not the next.
	for i, b := range hs.Bounds {
		if b == 1 {
			if prev := hs.Buckets[i-1]; prev != 1 {
				t.Fatalf("bucket below 1s = %d, want 1", prev)
			}
			if hs.Buckets[i] != 2 {
				t.Fatalf("1s bucket cumulative = %d, want 2", hs.Buckets[i])
			}
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := newRegistry()
	r.counter("zz_total", "").Inc()
	r.counter("aa_total", "").Inc()
	r.labelledCounter("mm_total", "", "k", "b").Inc()
	r.labelledCounter("mm_total", "", "k", "a").Inc()
	r.gauge("g2", "").set(1)
	r.gauge("g1", "").set(2)
	s := r.Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name+"/"+c.Label)
	}
	want := []string{"aa_total/", "mm_total/a", "mm_total/b", "zz_total/"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("counter order = %v, want %v", names, want)
	}
	if s.Gauges[0].Name != "g1" || s.Gauges[1].Name != "g2" {
		t.Fatalf("gauge order = %+v", s.Gauges)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := newRegistry()
	r.counter("events_total", "events processed").Add(42)
	r.labelledCounter("drops_total", "drops by cause", "cause", "collision").Add(7)
	r.labelledCounter("drops_total", "", "cause", "channel").Add(1)
	r.gauge("depth", "queue depth").set(13)
	r.histogram("wall_seconds", "unit wall time").observe(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP events_total events processed\n",
		"# TYPE events_total counter\n",
		"events_total 42\n",
		"# TYPE drops_total counter\n",
		`drops_total{cause="collision"} 7` + "\n",
		`drops_total{cause="channel"} 1` + "\n",
		"# TYPE depth gauge\n",
		"depth 13\n",
		"# TYPE wall_seconds histogram\n",
		`wall_seconds_bucket{le="0.001"} 0` + "\n",
		`wall_seconds_bucket{le="+Inf"} 1` + "\n",
		"wall_seconds_sum 0.5\n",
		"wall_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition misses %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several labelled samples.
	if got := strings.Count(out, "# TYPE drops_total counter"); got != 1 {
		t.Errorf("drops_total TYPE lines = %d, want 1", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := newRegistry()
	r.counter("a_total", "help a").Add(5)
	r.labelledCounter("b_total", "", "k", "v").Add(2)
	r.gauge("g", "").set(-3)
	snap := r.Snapshot().Deterministic()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
	if len(back.Histograms) != 0 {
		t.Fatal("deterministic snapshot carries histograms")
	}
}

func TestMergePrefersReceiver(t *testing.T) {
	run := newRegistry()
	run.counter("sim_events_total", "").Add(100)
	live := newRegistry()
	live.counter("sim_events_total", "").Add(0) // zero-valued registration
	live.counter("http_requests_total", "").Add(9)
	merged := run.Snapshot().Merge(live.Snapshot())
	byName := map[string]uint64{}
	for _, c := range merged.Counters {
		byName[c.Name] = c.Value
	}
	if byName["sim_events_total"] != 100 {
		t.Fatalf("merge let the live zero shadow the run value: %v", byName)
	}
	if byName["http_requests_total"] != 9 {
		t.Fatalf("merge dropped the live-only family: %v", byName)
	}
}

func TestEnabledDefaultOff(t *testing.T) {
	if Enabled() {
		t.Fatal("metrics enabled by default")
	}
}

// TestConcurrentSnapshot hammers Snapshot while counters, gauges and
// histograms record on other goroutines — the race-detector contract
// behind sweepd scraping a live process.
func TestConcurrentSnapshot(t *testing.T) {
	r := newRegistry()
	c := r.counter("c_total", "")
	g := r.gauge("g", "")
	h := r.histogram("h_seconds", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c.Inc()
				g.SetMax(int64(c.Value()))
				h.observe(0.001)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		var buf bytes.Buffer
		if err := s.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	s := r.Snapshot()
	if s.Counters[0].Value == 0 {
		t.Fatal("no increments observed")
	}
	if s.Histograms[0].Count != s.Counters[0].Value {
		t.Fatalf("histogram count %d != counter %d", s.Histograms[0].Count, s.Counters[0].Value)
	}
}
