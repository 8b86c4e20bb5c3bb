package baseline

import (
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

type fakePort struct {
	sent []*packet.Frame
}

func (p *fakePort) Send(f *packet.Frame) error {
	p.sent = append(p.sent, f)
	return nil
}

const apID packet.NodeID = 100

func newEpidemic(t *testing.T) (*sim.Engine, *EpidemicNode, *fakePort) {
	t.Helper()
	engine := sim.New()
	port := &fakePort{}
	n, err := NewEpidemicNode(1, engine, port, sim.Stream(3, "epi"), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	return engine, n, port
}

func rxd(n *EpidemicNode, f *packet.Frame) { n.HandleFrame(f, mac.RxMeta{}) }

func TestEpidemicValidation(t *testing.T) {
	engine := sim.New()
	port := &fakePort{}
	rng := sim.Stream(1, "x")
	if _, err := NewEpidemicNode(1, nil, port, rng, nil); err == nil {
		t.Fatal("nil ctx accepted")
	}
	if _, err := NewEpidemicNode(1, engine, nil, rng, nil); err == nil {
		t.Fatal("nil port accepted")
	}
}

func TestEpidemicBuffersEverything(t *testing.T) {
	engine, n, _ := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewData(apID, 1, 1, []byte("mine")))
		rxd(n, packet.NewData(apID, 2, 1, []byte("theirs")))
		rxd(n, packet.NewData(apID, 3, 9, []byte("also theirs")))
		rxd(n, packet.NewData(apID, 3, 9, []byte("dup")))
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.HaveCount() != 1 || !n.Have(1) {
		t.Fatalf("own store wrong: %d", n.HaveCount())
	}
	st := n.Stats()
	if st.DataDirect != 1 || st.Buffered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(n.order); got != 2 {
		t.Fatalf("store size = %d", got)
	}
}

func TestEpidemicFloodsInDarkArea(t *testing.T) {
	engine, n, port := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewData(apID, 2, 1, []byte("a")))
		rxd(n, packet.NewData(apID, 2, 2, []byte("b")))
	})
	// Dark from ~6 s; run long enough for several push intervals.
	if err := engine.RunUntil(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(port.sent) == 0 {
		t.Fatal("no flooding in dark area")
	}
	// Each packet pushed at most MaxPushes (2) times: <= 4 sends.
	if len(port.sent) > 4 {
		t.Fatalf("flooded %d frames, want <= 4", len(port.sent))
	}
	for _, f := range port.sent {
		if f.Type != packet.TypeResponse || f.Flow != 2 {
			t.Fatalf("unexpected flooded frame %v", f)
		}
	}
	if n.Stats().Pushes != uint64(len(port.sent)) {
		t.Fatalf("push stats mismatch")
	}
}

func TestEpidemicStopsFloodingOnAPContact(t *testing.T) {
	engine, n, port := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewData(apID, 2, 1, []byte("a")))
	})
	// Enter dark at ~6 s, then AP reappears at 7 s.
	engine.Schedule(7*time.Second, func() {
		rxd(n, packet.NewData(apID, 2, 5, []byte("z")))
	})
	if err := engine.RunUntil(7500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	count := len(port.sent)
	if err := engine.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(port.sent) != count {
		t.Fatalf("kept flooding in coverage: %d -> %d", count, len(port.sent))
	}
}

func TestEpidemicRecoversOwnFromRelay(t *testing.T) {
	engine, n, _ := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewResponse(2, 1, 7, []byte("relayed")))
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !n.Have(7) {
		t.Fatal("relayed own packet not absorbed")
	}
	if n.Stats().Recovered != 1 {
		t.Fatalf("Recovered = %d", n.Stats().Recovered)
	}
}

func TestEpidemicRelaysForeignRelays(t *testing.T) {
	// A relayed packet for a third node is stored and re-flooded —
	// epidemic spreading beyond one hop.
	engine, n, port := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewData(apID, 9, 1, []byte("keepalive"))) // AP contact
		rxd(n, packet.NewResponse(2, 3, 4, []byte("relay")))
	})
	if err := engine.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range port.sent {
		if f.Flow == 3 && f.Seq == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("foreign relay not re-flooded: %v", port.sent)
	}
}

func TestEpidemicIgnoresOwnTransmissions(t *testing.T) {
	engine, n, _ := newEpidemic(t)
	engine.Schedule(time.Second, func() {
		// A frame we sent ourselves, heard through some path: ignore.
		rxd(n, packet.NewResponse(1, 2, 3, []byte("self")))
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Buffered != 0 {
		t.Fatal("absorbed own transmission")
	}
}

func TestEpidemicObserverRecovery(t *testing.T) {
	engine := sim.New()
	var recovered []uint32
	obs := &recObserver{seqs: &recovered}
	n, err := NewEpidemicNode(1, engine, &fakePort{}, sim.Stream(1, "x"), obs)
	if err != nil {
		t.Fatal(err)
	}
	engine.Schedule(time.Second, func() {
		rxd(n, packet.NewResponse(2, 1, 42, nil))
	})
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != 42 {
		t.Fatalf("observer recoveries = %v", recovered)
	}
}

type recObserver struct {
	carq.NopObserver
	seqs *[]uint32
}

func (o *recObserver) OnRecovered(id packet.NodeID, seq uint32, from packet.NodeID, at time.Duration) {
	*o.seqs = append(*o.seqs, seq)
}
