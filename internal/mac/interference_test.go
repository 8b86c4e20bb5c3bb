package mac

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestInterfererDegradesButCarrierSenseProtects puts a third-party station
// near the receiver blasting background traffic. Because the sender and
// interferer are mutually in carrier-sense range, DCF serialises them and
// the victim still receives most frames — contention slows things down
// rather than destroying them.
func TestInterfererDegradesButCarrierSenseProtects(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	rec := newRecorder()
	m := NewMedium(engine, radio.MustChannel(cfg), rec)
	if _, err := m.AddStation(1, fixedPos(geom.Point{X: 0}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(2, fixedPos(geom.Point{X: 60}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(9, fixedPos(geom.Point{X: 80}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	// The interferer saturates the medium with 60 big frames.
	for i := 0; i < 60; i++ {
		if err := m.station(9).Send(packet.NewData(9, 999, uint32(i), make([]byte, 1000))); err != nil {
			t.Fatal(err)
		}
	}
	// The sender injects 20 frames spread over the same period.
	for i := 0; i < 20; i++ {
		seq := uint32(1000 + i)
		engine.Schedule(time.Duration(i)*25*time.Millisecond, func() {
			_ = m.station(1).Send(packet.NewData(1, 2, seq, make([]byte, 200)))
		})
	}
	engine.RunUntil(time.Hour)
	got := 0
	for _, f := range rec.rxFrames[2] {
		if f.Flow == 2 {
			got++
		}
	}
	if got < 18 {
		t.Fatalf("victim received %d/20 frames under contention, want >= 18 (carrier sense should serialise)", got)
	}
}

// TestHiddenInterfererCausesLoss moves the interferer out of the sender's
// carrier-sense range but close to the receiver: classic hidden terminal,
// now collisions do destroy frames.
func TestHiddenInterfererCausesLoss(t *testing.T) {
	engine := sim.New()
	cfg := radio.DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	rec := newRecorder()
	m := NewMedium(engine, radio.MustChannel(cfg), rec)
	// Sender at 0, receiver at 150, interferer at 300: sender and
	// interferer cannot hear each other; both reach the receiver with
	// comparable power.
	if _, err := m.AddStation(1, fixedPos(geom.Point{X: 0}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(2, fixedPos(geom.Point{X: 150}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStation(9, fixedPos(geom.Point{X: 300}), nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := m.station(9).Send(packet.NewData(9, 999, uint32(i), make([]byte, 1000))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		seq := uint32(1000 + i)
		engine.Schedule(time.Duration(i)*15*time.Millisecond, func() {
			_ = m.station(1).Send(packet.NewData(1, 2, seq, make([]byte, 1000)))
		})
	}
	engine.RunUntil(time.Hour)
	got := 0
	for _, f := range rec.rxFrames[2] {
		if f.Flow == 2 {
			got++
		}
	}
	if got > 10 {
		t.Fatalf("victim received %d/20 frames despite a saturating hidden interferer, expected heavy collision loss", got)
	}
}
