package traffic

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/trace"
)

// Replay reconstructs per-vehicle mobility models from a recorded
// traffic stream. The records must come from a simulation over the same
// network (Config.Recorder wrote them). A model's track is
// piecewise-linear through the samples, so at every recorded instant it
// returns exactly the position the simulation held then
// (Simulation.PositionNow).
type Replay struct {
	net    *Network
	tracks map[int][]sample
	ids    []int
}

// NewReplay indexes a recorded stream. It validates that every record
// references a link and lane that exist in the network and that each
// vehicle's samples are chronological.
func NewReplay(net *Network, col *trace.Collector) (*Replay, error) {
	if net == nil {
		return nil, fmt.Errorf("traffic: replay without network")
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(col.Vehicles) == 0 {
		return nil, fmt.Errorf("traffic: trace has no vehicle records")
	}
	r := &Replay{net: net, tracks: make(map[int][]sample)}
	last := make(map[int]time.Duration)
	for i, rec := range col.Vehicles {
		if rec.Link < 0 || rec.Link >= len(net.Links) {
			return nil, fmt.Errorf("traffic: record %d: link %d out of range", i, rec.Link)
		}
		l := net.Links[rec.Link]
		if rec.Lane < 0 || rec.Lane >= l.Lanes {
			return nil, fmt.Errorf("traffic: record %d: lane %d out of range", i, rec.Lane)
		}
		if prev, seen := last[rec.Veh]; seen && rec.At < prev {
			return nil, fmt.Errorf("traffic: record %d: vehicle %d time goes backwards", i, rec.Veh)
		}
		last[rec.Veh] = rec.At
		if _, seen := r.tracks[rec.Veh]; !seen {
			r.ids = append(r.ids, rec.Veh)
		}
		r.tracks[rec.Veh] = append(r.tracks[rec.Veh], sample{
			at:   rec.At,
			link: int32(rec.Link),
			lane: int32(rec.Lane),
			arc:  rec.Arc,
			v:    rec.Speed,
		})
	}
	return r, nil
}

// VehicleIDs returns the replayed vehicle IDs in first-appearance order
// (the simulation records vehicles in ID order, so this is ID order for
// streams written by Config.Recorder).
func (r *Replay) VehicleIDs() []int {
	return append([]int(nil), r.ids...)
}

// Model returns the mobility model of one replayed vehicle: the latest
// sample at or before the query time, linearly extrapolated along its
// lane at the sampled speed. The model keeps a private sample cursor:
// simulation clocks are monotone, so the usual query pattern advances a
// step or two per call instead of re-running a binary search over the
// whole track. Do not share one model across concurrently running
// engines.
func (r *Replay) Model(id int) (mobility.Model, error) {
	track, ok := r.tracks[id]
	if !ok {
		return nil, fmt.Errorf("traffic: no samples for vehicle %d", id)
	}
	net := r.net
	var cur posCursor
	return mobility.Func(func(now time.Duration) geom.Point {
		return cur.at(net, track, now)
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
	if !l.Loops() {
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
