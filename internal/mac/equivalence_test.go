package mac

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// eqRecorder captures every observable event of a run — tracer calls with
// full PHY metadata plus handler deliveries (including corrupt soft
// copies) — as a flat log for byte-level comparison between delivery
// modes.
type eqRecorder struct {
	log []string
	// txCount and deliveries verify in aggregate that culling actually
	// happened (the equivalence would be vacuous otherwise): with no
	// culling every transmission produces exactly stations-1 rx+drop
	// events.
	txCount    int
	deliveries int
	// stats are the medium's counters at the end of the run, inflight
	// its InFlightReceivers.
	stats    Stats
	inflight int
}

func (r *eqRecorder) OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration) {
	r.log = append(r.log, fmt.Sprintf("tx %v %s %d %d", src, f, start, airtime))
	r.txCount++
}

func (r *eqRecorder) OnRx(dst packet.NodeID, f *packet.Frame, meta RxMeta) {
	r.log = append(r.log, fmt.Sprintf("rx %v %s %d %.17g %.17g", dst, f, meta.At, meta.RxPowerDBm, meta.SINRdB))
	r.deliveries++
}

func (r *eqRecorder) OnDrop(dst packet.NodeID, f *packet.Frame, at time.Duration, reason DropReason) {
	r.log = append(r.log, fmt.Sprintf("drop %v %s %d %v", dst, f, at, reason))
	r.deliveries++
}

// urbanEquivalenceChannel is lossy enough that the reception horizon
// (~0.9-1.4 km depending on frame size) is far smaller than the test
// area, so the indexed path really culls.
func urbanEquivalenceChannel(seed int64) radio.Config {
	cfg := radio.DefaultConfig()
	cfg.PathLossExponent = 4.0
	cfg.Seed = seed
	return cfg
}

// eqWorld shapes a randomized equivalence world.
type eqWorld struct {
	areaM   float64
	simFor  time.Duration
	maxVel  float64 // per-axis m/s; keep under maxSpeedMPS/sqrt(2)
	sendsPb int     // frames per station
	// beacons makes every odd-numbered station an untraced background
	// beacon; beaconsListen gives those a no-op handler, so they are
	// resolved in full instead of deaf.
	beacons, beaconsListen bool
}

func defaultEqWorld() eqWorld {
	return eqWorld{areaM: 4000, simFor: 2 * time.Second, maxVel: 30, sendsPb: 3}
}

// runEquivalenceWorld builds one randomized topology/schedule and runs it
// under the given enumeration. Everything random derives from seed, so
// two calls with different enumerations see identical worlds.
func runEquivalenceWorld(t *testing.T, seed int64, stations int, enum Enumeration, w eqWorld) *eqRecorder {
	t.Helper()
	var (
		areaM   = w.areaM
		simFor  = w.simFor
		maxVel  = w.maxVel
		sendsPb = w.sendsPb
	)
	world := rand.New(rand.NewSource(seed))
	engine := sim.New()
	ch := radio.MustChannel(urbanEquivalenceChannel(seed))
	rec := &eqRecorder{}
	m := NewMedium(engine, ch, rec)
	m.SetEnumeration(enum)

	var corrupts []string
	for i := 0; i < stations; i++ {
		id := packet.NodeID(i + 1)
		x0, y0 := world.Float64()*areaM, world.Float64()*areaM
		vx, vy := (world.Float64()*2-1)*maxVel, (world.Float64()*2-1)*maxVel
		pos := func(now time.Duration) geom.Point {
			s := now.Seconds()
			return geom.Point{X: x0 + vx*s, Y: y0 + vy*s}
		}
		cfg := DefaultConfig()
		if i%4 == 0 {
			cfg.DeliverCorrupt = true
		}
		st, err := m.AddStation(id, pos, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case w.beacons && i%2 == 1:
			st.Untrace()
			if w.beaconsListen {
				st.SetHandler(HandlerFunc(func(*packet.Frame, RxMeta) {}))
			}
		default:
			st.SetHandler(HandlerFunc(func(f *packet.Frame, meta RxMeta) {
				if meta.Corrupt {
					corrupts = append(corrupts, fmt.Sprintf("corrupt %v %s %d %.17g", id, f, meta.At, meta.SINRdB))
				}
			}))
		}
		for s := 0; s < sendsPb; s++ {
			at := time.Duration(world.Int63n(int64(simFor)))
			var f *packet.Frame
			if world.Intn(2) == 0 {
				f = packet.NewData(id, packet.NodeID(world.Intn(stations)+1), uint32(s), make([]byte, 1000))
			} else {
				f = packet.NewHello(id, nil)
			}
			st := st
			engine.Schedule(at, func() { _ = st.Send(f) })
		}
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	rec.log = append(rec.log, corrupts...)
	rec.stats = m.Stats()
	rec.inflight = m.InFlightReceivers()
	return rec
}

// TestIndexedMatchesExhaustive is the property test behind the station
// grid: over randomized topologies, speeds, schedules and seeds, the
// indexed delivery path must produce the exact event stream of the
// exhaustive scan — same receptions, drops, corrupt soft copies, PHY
// metadata and RNG evolution — and the same delivery counters.
func TestIndexedMatchesExhaustive(t *testing.T) {
	cases := []struct {
		seed     int64
		stations int
	}{
		{1, 40},
		{2, 40},
		{3, 40},
		{4, 120},
		{5, 120},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.stations), func(t *testing.T) {
			checkIndexedMatchesExhaustive(t, tc.seed, tc.stations, defaultEqWorld())
		})
	}
}

// TestIncrementalIndexLongRunEquivalence stresses the grid's refresh
// cycle specifically: a small area and a long run mean hundreds of grid
// rebuilds with constant cell crossings between them, and the per-axis
// velocity is high enough that stations leave the area mid-run, so the
// grid's bounds move with every rebuild. The indexed path must still
// reproduce the exhaustive scan's event stream byte for byte.
func TestIncrementalIndexLongRunEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence world in -short mode")
	}
	world := eqWorld{areaM: 1500, simFor: 12 * time.Second, maxVel: 40, sendsPb: 6}
	for _, seed := range []int64{11, 12} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkIndexedMatchesExhaustive(t, seed, 60, world)
		})
	}
}

// checkIndexedMatchesExhaustive runs one world under both enumerations
// and fails unless their event streams and delivery counters agree and
// the horizon really culled receivers.
func checkIndexedMatchesExhaustive(t *testing.T, seed int64, stations int, world eqWorld) {
	t.Helper()
	exh := runEquivalenceWorld(t, seed, stations, EnumerateScan, world)
	idx := runEquivalenceWorld(t, seed, stations, EnumerateIndex, world)

	if len(exh.log) == 0 {
		t.Fatal("empty event log")
	}
	if len(idx.log) != len(exh.log) {
		t.Fatalf("event counts differ: indexed %d vs exhaustive %d", len(idx.log), len(exh.log))
	}
	for i := range exh.log {
		if idx.log[i] != exh.log[i] {
			t.Fatalf("event %d differs:\nindexed:    %s\nexhaustive: %s", i, idx.log[i], exh.log[i])
		}
	}
	if idx.stats.IndexQueries == 0 || exh.stats.IndexQueries != 0 {
		t.Fatalf("index queries: indexed %d, exhaustive %d", idx.stats.IndexQueries, exh.stats.IndexQueries)
	}
	is, es := delivery(idx.stats), delivery(exh.stats)
	if is != es {
		t.Fatalf("delivery counters differ:\nindexed:    %+v\nexhaustive: %+v", is, es)
	}
	// The comparison only means something if the horizon excluded
	// stations: without culling every transmission reaches exactly
	// stations-1 receivers.
	if exh.deliveries >= exh.txCount*(stations-1) {
		t.Fatal("no transmission was culled; the topology does not exercise the horizon")
	}
}

// delivery strips the enumeration counters from s, leaving what both
// enumerations must agree on.
func delivery(s Stats) Stats {
	s.IndexQueries, s.ScanQueries, s.IndexRebuilds = 0, 0, 0
	return s
}

// TestSenderRewokenWhenMediumStillBusy is the regression test for a
// waitlist lifecycle bug: when a station's own transmission ends while
// another transmission it senses is still on the air (hidden-terminal /
// asymmetric carrier-sense case), its re-registration on the waitlist
// must survive the same end event's wake-up round — dropping it there
// stalls its queue forever.
func TestSenderRewokenWhenMediumStillBusy(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	m := NewMedium(engine, radio.MustChannel(cfg), nil)

	// A senses everything; B senses nothing (so it happily transmits
	// over A).
	aCfg := DefaultConfig()
	aCfg.CSThresholdDBm = -200
	a, err := m.AddStation(1, fixedPos(geom.Point{X: 0}), nil, aCfg)
	if err != nil {
		t.Fatal(err)
	}
	bCfg := DefaultConfig()
	bCfg.CSThresholdDBm = 200
	b, err := m.AddStation(2, fixedPos(geom.Point{X: 50}), nil, bCfg)
	if err != nil {
		t.Fatal(err)
	}

	// A queues two frames; B starts a longer frame that overlaps the end
	// of A's first, so A's re-contention finds the medium busy.
	if err := a.Send(packet.NewData(1, 2, 1, make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(packet.NewData(1, 2, 2, make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	engine.Schedule(4*time.Millisecond, func() {
		_ = b.Send(packet.NewData(2, 1, 9, make([]byte, 2304)))
	})
	if err := engine.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Sent() != 2 || a.QueueLen() != 0 {
		t.Fatalf("station A stalled: sent=%d queue=%d waiting=%v", a.Sent(), a.QueueLen(), a.waiting)
	}
}

// TestHistoryBoundedUnderSustainedTraffic pins down pruneHistory's
// guarantee: under continuous traffic the interference history stays
// bounded by the retention window times the transmission rate, instead of
// growing for the life of the run.
func TestHistoryBoundedUnderSustainedTraffic(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	m := NewMedium(engine, radio.MustChannel(cfg), nil)
	var stations []*Station
	for i := 0; i < 4; i++ {
		st, err := m.AddStation(packet.NodeID(i+1), fixedPos(geom.Point{X: float64(i) * 30}), nil, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	// Saturate the medium for 5 simulated seconds: every station offers a
	// fresh frame every 2 ms.
	const horizon = 5 * time.Second
	for at := time.Duration(0); at < horizon; at += 2 * time.Millisecond {
		at := at
		for i, st := range stations {
			st, i := st, i
			engine.Schedule(at, func() {
				_ = st.Send(packet.NewData(st.ID(), packet.NodeID((i+1)%4+1), uint32(at), []byte("x")))
			})
		}
	}
	var maxHist, probes, sent int
	for at := 500 * time.Millisecond; at < horizon; at += 50 * time.Millisecond {
		engine.Schedule(at, func() {
			probes++
			if len(m.history) > maxHist {
				maxHist = len(m.history)
			}
		})
	}
	if err := engine.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	for _, st := range stations {
		sent += int(st.Sent())
	}
	if sent < 1000 {
		t.Fatalf("only %d transmissions; the load did not saturate the medium", sent)
	}
	// Retention is 100 ms; small frames air in well under 1 ms, so even a
	// fully saturated channel ends fewer than ~1000 transmissions per
	// retention window. The pre-fix failure mode was unbounded growth
	// (history ~ sent), which this cap is far below.
	if maxHist == 0 || maxHist > sent/4 || maxHist > 1000 {
		t.Fatalf("history peaked at %d entries over %d transmissions (probes=%d); not bounded by retention", maxHist, sent, probes)
	}
}
