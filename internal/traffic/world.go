package traffic

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/trace"
)

// World is one recorded traffic world: every vehicle's exposed
// trajectory samples in time order, and the summary of the whole
// population. A Simulation records it (Simulation.World), bound to the
// simulation's network. It is immutable, so every sweep arm and every
// harness worker replays one world concurrently.
type World struct {
	net    *Network
	tracks []track // ascending by vehicle ID
	sum    summer
}

// track is one vehicle's samples, strictly increasing in time.
type track struct {
	veh     int
	samples []sample
}

// Summary condenses a world for reports: the mean speed over every
// sample and the share of samples below the crawling threshold (2 m/s),
// the jam exposure of the whole population. Both sum the samples in
// record order (see Trace).
type Summary struct {
	MeanSpeedMPS float64
	CrawlShare   float64
	Samples      int
}

// summer accumulates a Summary sample by sample, in record order; every
// world has at least one sample.
type summer struct {
	speed     float64
	crawls, n int
}

func (s *summer) add(v float64) {
	s.speed += v
	if v < 2 {
		s.crawls++
	}
	s.n++
}

// Summary returns the world's summary.
func (w *World) Summary() Summary {
	n := float64(w.sum.n)
	return Summary{MeanSpeedMPS: w.sum.speed / n, CrawlShare: float64(w.sum.crawls) / n, Samples: w.sum.n}
}

// Trace returns the world's serialized form: one trace.VehicleRecord
// per sample, time-major (at each instant, the vehicles sampled then in
// ID order), which is the order the simulation recorded them in. It
// rebuilds that order by merging the tracks instant by instant.
func (w *World) Trace() *trace.Collector {
	recs := make([]trace.VehicleRecord, 0, w.sum.n)
	next := make([]int, len(w.tracks)) // each track's next sample
	live := make([]int, 0, len(w.tracks))
	var at time.Duration = math.MaxInt64
	for i, tr := range w.tracks {
		live = append(live, i)
		at = min(at, tr.samples[0].at)
	}
	for len(live) > 0 {
		now, kept := at, live[:0]
		at = math.MaxInt64
		for _, i := range live {
			tr := &w.tracks[i]
			if s := tr.samples[next[i]]; s.at == now {
				recs = append(recs, trace.VehicleRecord{
					At: s.at, Veh: tr.veh, Link: int(s.link), Lane: int(s.lane), Arc: s.arc, Speed: s.v,
				})
				next[i]++
			}
			if next[i] < len(tr.samples) {
				kept = append(kept, i)
				at = min(at, tr.samples[next[i]].at)
			}
		}
		live = kept
	}
	return &trace.Collector{Vehicles: recs}
}

// Model returns the mobility model of one vehicle: the latest sample at
// or before the query time, linearly extrapolated along its lane at the
// sampled speed, so at every recorded instant it returns exactly the
// position the simulation held then (Simulation.PositionNow). The model
// keeps a private sample cursor: simulation clocks are monotone, so the
// usual query pattern advances a step or two per call instead of
// re-running a binary search over the whole track. Do not share one
// model across concurrently running engines.
func (w *World) Model(id int) (mobility.Model, error) {
	i, ok := slices.BinarySearchFunc(w.tracks, id, func(tr track, id int) int { return cmp.Compare(tr.veh, id) })
	if !ok {
		return nil, fmt.Errorf("traffic: no samples for vehicle %d", id)
	}
	net, samples := w.net, w.tracks[i].samples
	var cur posCursor
	return mobility.Func(func(now time.Duration) geom.Point {
		return cur.at(net, samples, now)
	}), nil
}

// sample is one point of a vehicle's exposed piecewise-linear track.
type sample struct {
	at   time.Duration
	link int32
	lane int32
	arc  float64
	v    float64
}

// posCursor carries a track evaluator's resumable state: the sample index
// boundary samplePosCursor maintains, plus a fast-path cache of the
// governing sample and the polyline segment its extrapolation currently
// runs along. Queries landing in the same (sample, segment) window — the
// overwhelmingly common case, since the radio layer asks for positions
// orders of magnitude more often than tracks change segment — then touch
// only this struct. The cached evaluation replays the exact float
// expressions of samplePosCursor + Link.LanePoint on cached copies of the
// same inputs, so its results are bit-identical to the slow path's.
type posCursor struct {
	idx int
	// Governing-sample window [smpAt, nextAt).
	ok     bool
	smpAt  time.Duration
	nextAt time.Duration
	smpArc float64
	smpV   float64
	// Containing segment and lane offset.
	seg geom.Segment
	off float64
}

// at evaluates the track at now, resuming from (and updating) the cursor.
func (c *posCursor) at(net *Network, track []sample, now time.Duration) geom.Point {
	if c.ok && now >= c.smpAt && now < c.nextAt {
		arc := c.smpArc + c.smpV*(now-c.smpAt).Seconds()
		if arc >= c.seg.CumLo && arc < c.seg.CumHi {
			t := (arc - c.seg.CumLo) / (c.seg.CumHi - c.seg.CumLo)
			p := geom.Lerp(c.seg.Lo, c.seg.Hi, t)
			right := geom.Vec{DX: c.seg.Dir.DY, DY: -c.seg.Dir.DX}
			return p.Add(right.Scale(c.off))
		}
	}
	p, idx := samplePosCursor(net, track, now, c.idx)
	c.idx = idx
	c.refill(net, track, now, idx)
	return p
}

// refill rebuilds the fast-path cache after a slow-path evaluation. The
// cache only arms when the fast path can reproduce the slow path exactly:
// a real (non-clamped) governing sample with a known next sample, and an
// arc strictly inside a non-degenerate segment. A wrapped loop arc never
// arms (Mod-reduced arcs are only exact while 0 <= arc < length, which
// the CumLo/CumHi window already enforces for the unwrapped case).
func (c *posCursor) refill(net *Network, track []sample, now time.Duration, idx int) {
	c.ok = false
	if idx == 0 || idx >= len(track) {
		return
	}
	smp := track[idx-1]
	arc := smp.arc + smp.v*(now-smp.at).Seconds()
	if arc < 0 {
		return
	}
	l := net.Links[smp.link]
	seg, ok := l.Centre.SegmentAt(arc)
	if !ok {
		return
	}
	c.ok = true
	c.smpAt, c.nextAt = smp.at, track[idx].at
	c.smpArc, c.smpV = smp.arc, smp.v
	c.seg = seg
	c.off = (float64(smp.lane) + 0.5) * l.LaneWidthM
}

// samplePosCursor evaluates a piecewise-linear track: the latest sample
// at or before now (the first sample before that), linearly extrapolated
// along its lane at the sampled speed and clamped to the link end. hint
// is the index boundary returned by the previous call (the first sample
// after that query time). Monotone query times advance the cursor in
// O(1) amortised; a backward jump or a cold hint falls back to the binary
// search. The selected sample — and therefore the evaluated position —
// is exactly the one the plain binary search picks, whatever the hint.
func samplePosCursor(net *Network, track []sample, now time.Duration, hint int) (geom.Point, int) {
	if len(track) == 0 {
		return geom.Point{}, 0
	}
	lo := sampleIdx(track, now, hint)
	var smp sample
	if lo == 0 {
		smp = track[0]
		now = smp.at
	} else {
		smp = track[lo-1]
	}
	l := net.Links[smp.link]
	arc := smp.arc + smp.v*(now-smp.at).Seconds()
	if !l.loops() {
		// Plain comparison, not math.Min: arc and length are always
		// finite here and the call is too hot for the NaN-aware helper.
		if max := l.Length(); arc > max {
			arc = max
		}
	}
	return l.LanePoint(int(smp.lane), arc), lo
}

// sampleIdx returns the index of the first sample with at > now (the
// binary-search upper bound), resuming from hint when possible.
func sampleIdx(track []sample, now time.Duration, hint int) int {
	n := len(track)
	if hint < 0 || hint > n || (hint > 0 && track[hint-1].at > now) {
		hint = 0 // cold or backward: restart
	}
	// Forward scan from the hint; bail to binary search if the query
	// jumped far ahead.
	i := hint
	for steps := 0; i < n && track[i].at <= now; i++ {
		if steps++; steps > 8 {
			lo, hi := i, n
			for lo < hi {
				mid := (lo + hi) / 2
				if track[mid].at <= now {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
	}
	return i
}
