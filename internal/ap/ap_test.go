package ap

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

func perfectChannel() *radio.Channel {
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	return radio.MustChannel(cfg)
}

type countTracer struct {
	dataTx map[packet.NodeID][]uint32 // flow -> seqs, in tx order
}

func (c *countTracer) OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration) {
	if f.Type == packet.TypeData {
		c.dataTx[f.Flow] = append(c.dataTx[f.Flow], f.Seq)
	}
}
func (c *countTracer) OnRx(packet.NodeID, *packet.Frame, mac.RxMeta)                      {}
func (c *countTracer) OnDrop(packet.NodeID, *packet.Frame, time.Duration, mac.DropReason) {}

// sentCount returns the number of distinct DATA sequence numbers aired on
// a flow so far (repeats not counted).
func (c *countTracer) sentCount(flow packet.NodeID) uint32 {
	seqs := slices.Clone(c.dataTx[flow])
	slices.Sort(seqs)
	return uint32(len(slices.Compact(seqs)))
}

func buildAP(t *testing.T, cfg Config) (*sim.Engine, *AP, *countTracer) {
	t.Helper()
	engine := sim.New()
	tr := &countTracer{dataTx: make(map[packet.NodeID][]uint32)}
	m := mac.NewMedium(engine, perfectChannel(), tr)
	st, err := m.AddStation(cfg.ID, func(time.Duration) geom.Point { return geom.Point{} }, nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One receiver in range so delivery paths execute.
	if _, err := m.AddStation(99, func(time.Duration) geom.Point { return geom.Point{X: 30} }, nil, mac.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	a, err := New(engine, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine, a, tr
}

func TestValidation(t *testing.T) {
	engine := sim.New()
	m := mac.NewMedium(engine, perfectChannel(), nil)
	st, err := m.AddStation(1, func(time.Duration) geom.Point { return geom.Point{} }, nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{ID: 1, Flows: nil, PacketsPerSecond: 5, PayloadBytes: 10, Repeats: 1},
		{ID: 1, Flows: []packet.NodeID{2}, PacketsPerSecond: 0, PayloadBytes: 10, Repeats: 1},
		{ID: 1, Flows: []packet.NodeID{2}, PacketsPerSecond: 5, PayloadBytes: -1, Repeats: 1},
		{ID: 1, Flows: []packet.NodeID{2}, PacketsPerSecond: 5, PayloadBytes: packet.MaxPayload + 1, Repeats: 1},
		{ID: 1, Flows: []packet.NodeID{2}, PacketsPerSecond: 5, PayloadBytes: 10, Repeats: 0},
		{ID: 1, Flows: []packet.NodeID{2, 3, 2}, PacketsPerSecond: 5, PayloadBytes: 10, Repeats: 1},
	}
	for i, cfg := range cases {
		if _, err := New(engine, st, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(engine, nil, Config{ID: 1, Flows: []packet.NodeID{2}, PacketsPerSecond: 5, Repeats: 1}); err == nil {
		t.Fatal("nil station accepted")
	}
}

func TestRatePerFlow(t *testing.T) {
	cfg := Config{
		ID: 1, Flows: []packet.NodeID{10, 11, 12},
		PacketsPerSecond: 5, PayloadBytes: 100, Repeats: 1,
	}
	engine, _, tr := buildAP(t, cfg)
	if err := engine.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, flow := range cfg.Flows {
		n := len(tr.dataTx[flow])
		// 5/s over 10 s: 50 +-1 for phase effects.
		if n < 49 || n > 51 {
			t.Fatalf("flow %v: %d packets in 10 s, want ~50", flow, n)
		}
		// Without repeats every aired packet is a new one.
		if got := tr.sentCount(flow); got != uint32(n) {
			t.Fatalf("sentCount(%v) = %d, want %d", flow, got, n)
		}
	}
}

func TestSequencesAreConsecutiveFromOne(t *testing.T) {
	cfg := Config{ID: 1, Flows: []packet.NodeID{7}, PacketsPerSecond: 10, PayloadBytes: 50, Repeats: 1}
	engine, _, tr := buildAP(t, cfg)
	if err := engine.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	seqs := tr.dataTx[7]
	if len(seqs) == 0 {
		t.Fatal("no packets sent")
	}
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
}

func TestFirstSeqOverride(t *testing.T) {
	cfg := Config{ID: 1, Flows: []packet.NodeID{7}, PacketsPerSecond: 10, PayloadBytes: 0, Repeats: 1, FirstSeq: 100}
	engine, _, tr := buildAP(t, cfg)
	if err := engine.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if seqs := tr.dataTx[7]; len(seqs) == 0 || seqs[0] != 100 {
		t.Fatalf("first seq = %v, want 100", seqs)
	}
}

// TestCycleEndingAtMaxUint32: a file cycle whose last block is
// math.MaxUint32 must serve every block before wrapping to FirstSeq.
func TestCycleEndingAtMaxUint32(t *testing.T) {
	const first = math.MaxUint32 - 8
	cfg := Config{
		ID: 1, Flows: []packet.NodeID{7}, PacketsPerSecond: 10, Repeats: 1,
		FirstSeq: first, CycleLength: 9, Stop: 1950 * time.Millisecond,
	}
	engine, _, tr := buildAP(t, cfg)
	if err := engine.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	seqs := tr.dataTx[7]
	if len(seqs) != 20 {
		t.Fatalf("sent %d packets, want 20", len(seqs))
	}
	for i, seq := range seqs {
		if want := uint32(first + i%9); seq != want {
			t.Fatalf("seqs = %v: [%d] = %d, want %d", seqs, i, seq, want)
		}
	}
}

func TestStartStopWindow(t *testing.T) {
	cfg := Config{
		ID: 1, Flows: []packet.NodeID{7},
		PacketsPerSecond: 10, PayloadBytes: 0, Repeats: 1,
		Start: 2 * time.Second, Stop: 4 * time.Second,
	}
	engine, _, tr := buildAP(t, cfg)
	if err := engine.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	n := len(tr.dataTx[7])
	// 2 s window at 10/s.
	if n < 19 || n > 21 {
		t.Fatalf("sent %d packets in 2 s window, want ~20", n)
	}
}

func TestRepeats(t *testing.T) {
	cfg := Config{ID: 1, Flows: []packet.NodeID{7}, PacketsPerSecond: 5, PayloadBytes: 0, Repeats: 3}
	engine, a, tr := buildAP(t, cfg)
	engine.Schedule(2*time.Second-time.Millisecond, a.Stop)
	if err := engine.Run(); err != nil { // drain so queued repeats all air
		t.Fatal(err)
	}
	seqs := tr.dataTx[7]
	distinct := tr.sentCount(7)
	if len(seqs) != int(distinct)*3 {
		t.Fatalf("tx count %d != 3 * distinct %d", len(seqs), distinct)
	}
	// Every seq appears exactly 3 times.
	count := make(map[uint32]int)
	for _, s := range seqs {
		count[s]++
	}
	for s, c := range count {
		if c != 3 {
			t.Fatalf("seq %d transmitted %d times, want 3", s, c)
		}
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	cfg := Config{ID: 1, Flows: []packet.NodeID{7}, PacketsPerSecond: 10, PayloadBytes: 0, Repeats: 1}
	engine, a, tr := buildAP(t, cfg)
	engine.Schedule(time.Second, a.Stop)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	n := len(tr.dataTx[7])
	if n < 9 || n > 11 {
		t.Fatalf("sent %d packets before Stop, want ~10", n)
	}
}

func TestFlowsAreStaggered(t *testing.T) {
	// With 3 flows at 5/s, consecutive transmissions alternate flows
	// rather than bursting — check the first 9 tx interleave.
	engine := sim.New()
	var order []packet.NodeID
	tr := &orderTracer{order: &order}
	m := mac.NewMedium(engine, perfectChannel(), tr)
	st, err := m.AddStation(1, func(time.Duration) geom.Point { return geom.Point{} }, nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(engine, st, Config{
		ID: 1, Flows: []packet.NodeID{10, 11, 12},
		PacketsPerSecond: 5, PayloadBytes: 100, Repeats: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(order) < 9 {
		t.Fatalf("only %d transmissions", len(order))
	}
	for i := 0; i < 9; i++ {
		want := packet.NodeID(10 + i%3)
		if order[i] != want {
			t.Fatalf("tx %d targeted %v, want %v (order %v)", i, order[i], want, order[:9])
		}
	}
}

type orderTracer struct{ order *[]packet.NodeID }

func (o *orderTracer) OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration) {
	if f.Type == packet.TypeData {
		*o.order = append(*o.order, f.Flow)
	}
}
func (o *orderTracer) OnRx(packet.NodeID, *packet.Frame, mac.RxMeta)                      {}
func (o *orderTracer) OnDrop(packet.NodeID, *packet.Frame, time.Duration, mac.DropReason) {}
