package mac

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// perfectChannelConfig returns a channel with no shadowing or fading so
// link outcomes depend only on geometry; links are essentially perfect
// within ~150 m and dead beyond ~1 km.
func perfectChannelConfig() radio.Config {
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	return cfg
}

func fixedPos(p geom.Point) PositionFunc {
	return func(time.Duration) geom.Point { return p }
}

// recorder implements Tracer and Handler for tests.
type recorder struct {
	tx     []string
	txFrom map[packet.NodeID]int // transmissions per source
	rx     []string
	drops  []string
	// rxFrames keeps received frames per station.
	rxFrames map[packet.NodeID][]*packet.Frame
}

func newRecorder() *recorder {
	return &recorder{txFrom: make(map[packet.NodeID]int), rxFrames: make(map[packet.NodeID][]*packet.Frame)}
}

func (r *recorder) OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration) {
	r.tx = append(r.tx, src.String()+" "+f.String())
	r.txFrom[src]++
}

// station returns the registered station with the given id, or nil.
func (m *Medium) station(id packet.NodeID) *Station { return m.stations[id] }

func (r *recorder) OnRx(dst packet.NodeID, f *packet.Frame, meta RxMeta) {
	r.rx = append(r.rx, dst.String()+" "+f.String())
	r.rxFrames[dst] = append(r.rxFrames[dst], f)
}

func (r *recorder) OnDrop(dst packet.NodeID, f *packet.Frame, at time.Duration, reason DropReason) {
	r.drops = append(r.drops, dst.String()+" "+reason.String())
}

func setup(t *testing.T, positions map[packet.NodeID]geom.Point) (*sim.Engine, *Medium, *recorder) {
	t.Helper()
	engine := sim.New()
	ch := radio.MustChannel(perfectChannelConfig())
	rec := newRecorder()
	m := NewMedium(engine, ch, rec)
	ids := make([]packet.NodeID, 0, len(positions))
	for id := range positions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, err := m.AddStation(id, fixedPos(positions[id]), nil, DefaultConfig()); err != nil {
			t.Fatalf("AddStation(%v): %v", id, err)
		}
	}
	return engine, m, rec
}

func TestPointToPointDelivery(t *testing.T) {
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 50},
	})
	payload := []byte("hello world")
	if err := m.station(1).Send(packet.NewData(1, 2, 7, payload)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	engine.RunUntil(time.Hour)
	frames := rec.rxFrames[2]
	if len(frames) != 1 {
		t.Fatalf("station 2 received %d frames, want 1", len(frames))
	}
	got := frames[0]
	if got.Seq != 7 || string(got.Payload) != "hello world" {
		t.Fatalf("received %+v", got)
	}
	if rec.txFrom[1] != 1 {
		t.Fatalf("station 1 transmitted %d frames, want 1", rec.txFrom[1])
	}
}

func TestPromiscuousDelivery(t *testing.T) {
	// A DATA frame addressed to 2 is also heard by 3 — the basis of
	// cooperative buffering.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 50}, 3: {X: 60},
	})
	if err := m.station(1).Send(packet.NewData(1, 2, 1, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[2]) != 1 || len(rec.rxFrames[3]) != 1 {
		t.Fatalf("rx counts: station2=%d station3=%d, want 1/1",
			len(rec.rxFrames[2]), len(rec.rxFrames[3]))
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	// Station 2 sits in the marginal zone: detectable, but the frame
	// (essentially) always fails the channel — a recorded drop. Station 3
	// sits far beyond the reception horizon, where the signal is provably
	// below the certain-loss floor (tens of dB under noise): the medium
	// does not even consider it, so there is no drop record.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 500}, 3: {X: 5000},
	})
	if err := m.station(1).Send(packet.NewData(1, 2, 1, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[2])+len(rec.rxFrames[3]) != 0 {
		t.Fatalf("distant stations received frames: %d/%d",
			len(rec.rxFrames[2]), len(rec.rxFrames[3]))
	}
	if len(rec.drops) != 1 || !strings.Contains(rec.drops[0], "n2 channel") {
		t.Fatalf("drops = %v, want exactly one channel drop at n2", rec.drops)
	}
}

func TestHandlerReceivesFrames(t *testing.T) {
	engine := sim.New()
	ch := radio.MustChannel(perfectChannelConfig())
	m := NewMedium(engine, ch, nil)
	var got []*packet.Frame
	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	_, err := m.AddStation(2, fixedPos(geom.Point{X: 40}), HandlerFunc(func(f *packet.Frame, meta RxMeta) {
		got = append(got, f)
		if meta.RxPowerDBm == 0 || meta.SINRdB == 0 {
			t.Errorf("meta not populated: %+v", meta)
		}
	}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.station(1).Send(packet.NewHello(1, []packet.NodeID{2})); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(got) != 1 || got[0].Type != packet.TypeHello {
		t.Fatalf("handler got %v", got)
	}
}

func TestCarrierSenseSerialisesNeighbours(t *testing.T) {
	// Two stations in range of each other both send; the second must
	// defer, so the receiver gets both frames (no collision).
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 30}, 3: {X: 15},
	})
	if err := m.station(1).Send(packet.NewData(1, 3, 1, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	if err := m.station(2).Send(packet.NewData(2, 3, 2, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[3]) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (drops: %v)", len(rec.rxFrames[3]), rec.drops)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Stations 1 and 2 are 300 m apart (below carrier-sense threshold at
	// each other) with the receiver half-way: simultaneous sends collide
	// at the receiver with comparable powers, and neither is captured.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 300}, 3: {X: 150},
	})
	if err := m.station(1).Send(packet.NewData(1, 3, 1, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	if err := m.station(2).Send(packet.NewData(2, 3, 2, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[3]) != 0 {
		t.Fatalf("receiver got %d frames during collision, want 0", len(rec.rxFrames[3]))
	}
	collisions := 0
	for _, d := range rec.drops {
		if strings.HasPrefix(d, "n3") && strings.Contains(d, "collision") {
			collisions++
		}
	}
	if collisions != 2 {
		t.Fatalf("collision drops at receiver = %d, want 2 (drops: %v)", collisions, rec.drops)
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	// Hidden terminals again, but the receiver sits close to station 1:
	// its frame dominates by far more than the capture margin.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 300}, 3: {X: 15},
	})
	if err := m.station(1).Send(packet.NewData(1, 3, 1, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	if err := m.station(2).Send(packet.NewData(2, 3, 2, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[3]) != 1 || rec.rxFrames[3][0].Src != 1 {
		t.Fatalf("capture failed: rx=%v drops=%v", rec.rx, rec.drops)
	}
}

func TestHalfDuplex(t *testing.T) {
	// Hidden senders 1 and 2 transmit simultaneously; each is in range of
	// the other's frame but busy transmitting, so neither receives.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 300},
	})
	if err := m.station(1).Send(packet.NewData(1, 2, 1, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	if err := m.station(2).Send(packet.NewData(2, 1, 2, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(rec.rxFrames[1])+len(rec.rxFrames[2]) != 0 {
		t.Fatalf("half-duplex violated: %v", rec.rx)
	}
	hd := 0
	for _, d := range rec.drops {
		if strings.Contains(d, "half-duplex") {
			hd++
		}
	}
	if hd != 2 {
		t.Fatalf("half-duplex drops = %d, want 2 (%v)", hd, rec.drops)
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 50},
	})
	for seq := uint32(1); seq <= 5; seq++ {
		if err := m.station(1).Send(packet.NewData(1, 2, seq, []byte("p"))); err != nil {
			t.Fatal(err)
		}
	}
	engine.RunUntil(time.Hour)
	frames := rec.rxFrames[2]
	if len(frames) != 5 {
		t.Fatalf("received %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint32(i+1) {
			t.Fatalf("out of order: frame %d has seq %d", i, f.Seq)
		}
	}
}

func TestQueueCapacity(t *testing.T) {
	engine := sim.New()
	ch := radio.MustChannel(perfectChannelConfig())
	m := NewMedium(engine, ch, nil)
	cfg := DefaultConfig()
	cfg.QueueCap = 2
	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(2, fixedPos(geom.Point{X: 10}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	s := m.station(1)
	for i := 0; i < 2; i++ {
		if err := s.Send(packet.NewData(1, 2, uint32(i), nil)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := s.Send(packet.NewData(1, 2, 9, nil)); err == nil {
		t.Fatal("overfull queue accepted a frame")
	}
}

func TestSendRejectsUnencodableFrame(t *testing.T) {
	engine := sim.New()
	_ = engine
	ch := radio.MustChannel(perfectChannelConfig())
	m := NewMedium(sim.New(), ch, nil)
	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	bad := &packet.Frame{Type: packet.Type(99)}
	if err := m.station(1).Send(bad); err == nil {
		t.Fatal("unencodable frame accepted")
	}
}

func TestAddStationValidation(t *testing.T) {
	m := NewMedium(sim.New(), radio.MustChannel(perfectChannelConfig()), nil)
	if _, err := m.AddStation(1, nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil position accepted")
	}
	if _, err := m.AddStation(packet.Broadcast, fixedPos(geom.Point{}), nil, DefaultConfig()); err == nil {
		t.Fatal("broadcast id accepted")
	}
	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, DefaultConfig()); err == nil {
		t.Fatal("duplicate id accepted")
	}
	badMod := DefaultConfig()
	badMod.Modulation = radio.Modulation{}
	if _, err := m.AddStation(3, fixedPos(geom.Point{}), nil, badMod); err == nil {
		t.Fatal("zero modulation accepted")
	}
	badQueue := DefaultConfig()
	badQueue.QueueCap = 0
	if _, err := m.AddStation(4, fixedPos(geom.Point{}), nil, badQueue); err == nil {
		t.Fatal("zero queue accepted")
	}
}

func TestAirtimeOccupiesMedium(t *testing.T) {
	// A 1000-byte frame at 1 Mb/s occupies ~8.2 ms; the receive event
	// must happen at contention + airtime, not immediately.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 50},
	})
	var rxAt time.Duration
	m.station(2).SetHandler(HandlerFunc(func(f *packet.Frame, meta RxMeta) { rxAt = meta.At }))
	if err := m.station(1).Send(packet.NewData(1, 2, 1, make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	_ = rec
	frame := packet.NewData(1, 2, 1, make([]byte, 1000))
	airtime := secondsToDuration(radio.DSSS1Mbps.Airtime(frame.WireSize()))
	minAt := difs + airtime
	maxAt := minAt + cwMin*slotTime
	if rxAt < minAt || rxAt > maxAt {
		t.Fatalf("rx at %v, want within [%v, %v]", rxAt, minAt, maxAt)
	}
}

func TestDeterministicMACRuns(t *testing.T) {
	run := func() []string {
		engine := sim.New()
		ch := radio.MustChannel(radio.DefaultConfig()) // shadowing+fading on
		rec := newRecorder()
		m := NewMedium(engine, ch, rec)
		positions := map[packet.NodeID]geom.Point{1: {X: 0}, 2: {X: 80}, 3: {X: 160}}
		for _, id := range []packet.NodeID{1, 2, 3} {
			if _, err := m.AddStation(id, fixedPos(positions[id]), nil, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			seq := uint32(i)
			engine.Schedule(time.Duration(i)*10*time.Millisecond, func() {
				_ = m.station(1).Send(packet.NewData(1, 2, seq, make([]byte, 200)))
				_ = m.station(3).Send(packet.NewData(3, 2, seq+1000, make([]byte, 200)))
			})
		}
		engine.RunUntil(time.Hour)
		return append(append([]string{}, rec.rx...), rec.drops...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDropReasonString(t *testing.T) {
	for _, tc := range []struct {
		r    DropReason
		want string
	}{
		{DropChannel, "channel"},
		{DropCollision, "collision"},
		{DropHalfDuplex, "half-duplex"},
		{DropReason(4), "DropReason(4)"},
		{DropReason(42), "DropReason(42)"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestManyFramesUnderLoad(t *testing.T) {
	// Saturate three mutually in-range stations and check conservation:
	// every frame is either received or dropped with a reason, at every
	// other station.
	engine, m, rec := setup(t, map[packet.NodeID]geom.Point{
		1: {X: 0}, 2: {X: 20}, 3: {X: 40},
	})
	const n = 50
	for i := 0; i < n; i++ {
		if err := m.station(1).Send(packet.NewData(1, 2, uint32(i), make([]byte, 100))); err != nil {
			t.Fatal(err)
		}
		if err := m.station(2).Send(packet.NewData(2, 3, uint32(i), make([]byte, 100))); err != nil {
			t.Fatal(err)
		}
		if err := m.station(3).Send(packet.NewData(3, 1, uint32(i), make([]byte, 100))); err != nil {
			t.Fatal(err)
		}
	}
	engine.RunUntil(time.Hour)
	if got := len(rec.tx); got != 3*n {
		t.Fatalf("tx count = %d, want %d", got, 3*n)
	}
	// Each transmission has 2 potential receivers.
	if got := len(rec.rx) + len(rec.drops); got != 3*n*2 {
		t.Fatalf("rx+drops = %d, want %d", got, 3*n*2)
	}
}

func BenchmarkMediumBroadcast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		ch := radio.MustChannel(perfectChannelConfig())
		m := NewMedium(engine, ch, nil)
		for id := packet.NodeID(1); id <= 4; id++ {
			if _, err := m.AddStation(id, fixedPos(geom.Point{X: float64(id) * 30}), nil, DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 100; j++ {
			if err := m.station(1).Send(packet.NewData(1, 2, uint32(j), make([]byte, 1000))); err != nil {
				b.Fatal(err)
			}
		}
		engine.RunUntil(time.Hour)
	}
}
