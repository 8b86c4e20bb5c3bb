package ap

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestAdaptiveRepeatsDefaults(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 0, 0)
	if p.MaxRepeats != 1 {
		t.Fatalf("MaxRepeats = %d, want clamped to 1", p.MaxRepeats)
	}
	if p.Window != 3*time.Second {
		t.Fatalf("Window = %v, want 3s default", p.Window)
	}
}

func TestAdaptiveRepeatsNooneHeard(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 3, time.Second)
	// Nothing heard: no repeats wasted on an empty road.
	if got := p.Repeats(engine.Now()); got != 1 {
		t.Fatalf("Repeats = %d, want 1 with nobody around", got)
	}
}

func TestAdaptiveRepeatsLoneCar(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 3, 2*time.Second)
	// A car with no cooperators: max repeats.
	p.HandleFrame(packet.NewHello(1, nil), mac.RxMeta{})
	if got := p.Repeats(engine.Now()); got != 3 {
		t.Fatalf("Repeats = %d, want 3 for a lone car", got)
	}
}

func TestAdaptiveRepeatsFullPlatoon(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 3, 2*time.Second)
	p.HandleFrame(packet.NewHello(1, []packet.NodeID{2, 3}), mac.RxMeta{})
	p.HandleFrame(packet.NewHello(2, []packet.NodeID{1, 3}), mac.RxMeta{})
	p.HandleFrame(packet.NewHello(3, []packet.NodeID{1, 2}), mac.RxMeta{})
	if got := p.CooperatorEstimate(); got != 2 {
		t.Fatalf("CooperatorEstimate = %v, want 2", got)
	}
	if got := p.Repeats(engine.Now()); got != 1 {
		t.Fatalf("Repeats = %d, want 1 for a full platoon", got)
	}
}

func TestAdaptiveRepeatsExpiry(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 3, time.Second)
	p.HandleFrame(packet.NewHello(1, nil), mac.RxMeta{})
	engine.Schedule(5*time.Second, func() {})
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	// The HELLO is stale now.
	if got := p.Repeats(engine.Now()); got != 1 {
		t.Fatalf("Repeats = %d, want 1 after expiry", got)
	}
	if got := p.CooperatorEstimate(); got != 0 {
		t.Fatalf("CooperatorEstimate = %v, want 0 after expiry", got)
	}
}

func TestAdaptiveRepeatsIgnoresCorruptAndNonHello(t *testing.T) {
	engine := sim.New()
	p := NewAdaptiveRepeats(engine, 3, time.Second)
	p.HandleFrame(packet.NewHello(1, nil), mac.RxMeta{Corrupt: true})
	p.HandleFrame(packet.NewData(9, 1, 1, nil), mac.RxMeta{})
	if got := p.Repeats(engine.Now()); got != 1 {
		t.Fatalf("Repeats = %d, corrupt/non-hello frames must not register", got)
	}
}

func TestAPUsesRepeatPolicy(t *testing.T) {
	cfg := Config{
		ID: 1, Flows: []packet.NodeID{7},
		PacketsPerSecond: 5, PayloadBytes: 0, Repeats: 1,
		RepeatPolicy: staticPolicy(2),
	}
	engine, a, tr := buildAP(t, cfg)
	engine.Schedule(2*time.Second-time.Millisecond, a.Stop)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	seqs := tr.dataTx[7]
	if len(seqs) != int(tr.sentCount(7))*2 {
		t.Fatalf("policy repeats not applied: %d tx for %d packets", len(seqs), tr.sentCount(7))
	}
}

type staticPolicy int

func (s staticPolicy) Repeats(time.Duration) int { return int(s) }
