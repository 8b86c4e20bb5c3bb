package mac

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestDeliverCorrupt checks the soft-information path: a station beyond
// decode range still sees frames when DeliverCorrupt is on, flagged
// corrupt, while a normal station sees nothing.
func TestDeliverCorrupt(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	m := NewMedium(engine, radio.MustChannel(cfg), nil)

	if _, err := m.AddStation(1, fixedPos(geom.Point{}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	// Marginal stations — inside the reception horizon (detectable) but
	// far enough that the frame always fails the channel.
	softCfg := DefaultConfig()
	softCfg.DeliverCorrupt = true
	var soft []RxMeta
	if _, err := m.AddStation(2, fixedPos(geom.Point{X: 500}), HandlerFunc(func(f *packet.Frame, meta RxMeta) {
		soft = append(soft, meta)
		if f.Seq != 9 {
			t.Errorf("corrupt frame decoded wrong: %v", f)
		}
	}), softCfg); err != nil {
		t.Fatal(err)
	}
	var hard []RxMeta
	if _, err := m.AddStation(3, fixedPos(geom.Point{X: 500}), HandlerFunc(func(f *packet.Frame, meta RxMeta) {
		hard = append(hard, meta)
	}), DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	if err := m.station(1).Send(packet.NewData(1, 2, 9, []byte("soft"))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	if len(soft) != 1 || !soft[0].Corrupt {
		t.Fatalf("soft station deliveries = %+v, want one corrupt", soft)
	}
	if len(hard) != 0 {
		t.Fatalf("hard station received corrupt frames: %+v", hard)
	}
}

// TestDeliverCorruptNotForCollisions checks collisions yield no soft copy:
// overlapping same-band energy leaves nothing to combine.
func TestDeliverCorruptNotForCollisions(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	m := NewMedium(engine, radio.MustChannel(cfg), nil)
	softCfg := DefaultConfig()
	softCfg.DeliverCorrupt = true

	// Hidden senders collide at the middle receiver.
	if _, err := m.AddStation(1, fixedPos(geom.Point{X: 0}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(2, fixedPos(geom.Point{X: 300}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var got []RxMeta
	if _, err := m.AddStation(3, fixedPos(geom.Point{X: 150}), HandlerFunc(func(f *packet.Frame, meta RxMeta) {
		got = append(got, meta)
	}), softCfg); err != nil {
		t.Fatal(err)
	}
	if err := m.station(1).Send(packet.NewData(1, 3, 1, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	if err := m.station(2).Send(packet.NewData(2, 3, 2, make([]byte, 500))); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(time.Hour)
	for _, meta := range got {
		if meta.Corrupt {
			t.Fatalf("collision produced a soft copy: %+v", meta)
		}
	}
}
