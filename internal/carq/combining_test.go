package carq

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
)

// rxCorrupt injects a corrupted copy with the given SINR.
func rxCorrupt(n *Node, f *packet.Frame, sinrDB float64) {
	n.HandleFrame(f, mac.RxMeta{Corrupt: true, SINRdB: sinrDB})
}

func TestCombiningDisabledIgnoresCorruptFrames(t *testing.T) {
	engine, n, _, _ := newTestNode(t, nil) // FrameCombining off by default
	n.Start()
	engine.Schedule(time.Second, func() {
		for i := 0; i < 10; i++ {
			rxCorrupt(n, packet.NewData(apID, 1, 7, []byte("x")), 30)
		}
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Have(7) {
		t.Fatal("combining-disabled node decoded corrupted frames")
	}
	if n.Stats().CorruptCopies != 0 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestCombiningTwoStrongCopiesDecode(t *testing.T) {
	engine, n, _, obs := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		// Two copies at 10 dB each combine to ~13 dB: with the 1 Mb/s
		// DSSS processing gain the combined PER is effectively zero, so
		// the second copy must decode deterministically.
		rxCorrupt(n, packet.NewData(apID, 1, 7, []byte("x")), 10)
		if n.Have(7) {
			t.Error("single corrupted copy decoded")
		}
		rxCorrupt(n, packet.NewData(apID, 1, 7, []byte("x")), 10)
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !n.Have(7) {
		t.Fatal("two strong copies did not combine")
	}
	st := n.Stats()
	if st.CorruptCopies != 2 || st.Combined != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(obs.recovered) != 1 || obs.recovered[0] != 7 {
		t.Fatalf("observer recovered = %v", obs.recovered)
	}
	// Combined DATA extends the direct range.
	first, last, ok := n.ownRange()
	if !ok || first != 7 || last != 7 {
		t.Fatalf("ownRange = %d..%d ok=%v", first, last, ok)
	}
}

func TestCombiningHopelessCopiesDoNotDecode(t *testing.T) {
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		for i := 0; i < 5; i++ {
			rxCorrupt(n, packet.NewData(apID, 1, 7, make([]byte, 1000)), -30)
		}
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Have(7) {
		t.Fatal("deeply corrupted copies decoded")
	}
	if got := n.Stats().CorruptCopies; got != 5 {
		t.Fatalf("CorruptCopies = %d", got)
	}
}

func TestCombiningIgnoresForeignFlows(t *testing.T) {
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		rxCorrupt(n, packet.NewData(apID, 2, 7, nil), 20)
		rxCorrupt(n, packet.NewData(apID, 2, 7, nil), 20)
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CorruptCopies != 0 {
		t.Fatal("soft-buffered a foreign flow")
	}
}

func TestCombiningIgnoresControlFrames(t *testing.T) {
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		rxCorrupt(n, packet.NewHello(2, []packet.NodeID{1}), 20)
		rxCorrupt(n, packet.NewRequest(2, []uint32{1}), 20)
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Stats().CorruptCopies != 0 {
		t.Fatal("soft-buffered control frames")
	}
	if len(n.Cooperators()) != 0 {
		t.Fatal("corrupted HELLO updated cooperator state")
	}
}

func TestCombiningSkipsAlreadyHeldPackets(t *testing.T) {
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 7, []byte("clean")))
		rxCorrupt(n, packet.NewData(apID, 1, 7, []byte("soft")), 20)
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().CorruptCopies; got != 0 {
		t.Fatalf("buffered a copy of a held packet: %d", got)
	}
	if p, _ := n.Payload(7); string(p) != "clean" {
		t.Fatalf("payload overwritten: %q", p)
	}
}

func TestCombiningResponseCopiesCount(t *testing.T) {
	// Corrupted RESPONSE copies (cooperator retransmissions) combine
	// exactly like DATA copies — the C-ARQ/FC case.
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.FrameCombining = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		rxCorrupt(n, packet.NewResponse(2, 1, 9, []byte("r")), 10)
		rxCorrupt(n, packet.NewResponse(3, 1, 9, []byte("r")), 10)
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !n.Have(9) {
		t.Fatal("response copies did not combine")
	}
	// A combined RESPONSE must not extend the direct AP range.
	if _, _, ok := n.ownRange(); ok {
		t.Fatal("combined RESPONSE extended the direct-reception range")
	}
}
