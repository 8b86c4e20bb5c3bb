package carq

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// fakePort records transmitted frames.
type fakePort struct {
	sent []*packet.Frame
	err  error
}

func (p *fakePort) Send(f *packet.Frame) error {
	if p.err != nil {
		return p.err
	}
	p.sent = append(p.sent, f)
	return nil
}

func (p *fakePort) byType(t packet.Type) []*packet.Frame {
	var out []*packet.Frame
	for _, f := range p.sent {
		if f.Type == t {
			out = append(out, f)
		}
	}
	return out
}

type obsRecorder struct {
	phases    []string
	recovered []uint32
	completed int
}

func (o *obsRecorder) OnPhaseChange(id packet.NodeID, from, to Phase, at time.Duration) {
	o.phases = append(o.phases, from.String()+">"+to.String())
}
func (o *obsRecorder) OnRecovered(id packet.NodeID, seq uint32, from packet.NodeID, at time.Duration) {
	o.recovered = append(o.recovered, seq)
}
func (o *obsRecorder) OnComplete(id packet.NodeID, at time.Duration) { o.completed++ }

func newTestNode(t *testing.T, mutate func(*Config)) (*sim.Engine, *Node, *fakePort, *obsRecorder) {
	t.Helper()
	engine := sim.New()
	port := &fakePort{}
	obs := &obsRecorder{}
	cfg := DefaultConfig(1)
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg, Deps{
		Ctx: engine, Port: port, RNG: sim.Stream(7, "node"), Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine, n, port, obs
}

// rx injects a frame into the node at the engine's current time.
func rx(n *Node, f *packet.Frame) { n.HandleFrame(f, mac.RxMeta{RxPowerDBm: -60}) }

// ownRange returns the first and last own-flow sequence received directly
// from the AP; ok is false before any direct reception.
func (n *Node) ownRange() (first, last uint32, ok bool) {
	return n.ownMin, n.ownMax, n.ownSeen
}

// bufferedFor returns how many packets the node holds for a platoon
// member's flow.
func (n *Node) bufferedFor(flow packet.NodeID) int { return len(n.forOthers[flow]) }

// holds reports whether the node holds its own-flow packet seq (received
// directly or recovered).
func (n *Node) holds(seq uint32) bool {
	_, ok := n.have[seq]
	return ok
}

// payload returns the stored payload for an own-flow packet.
func (n *Node) payload(seq uint32) ([]byte, bool) {
	p, ok := n.have[seq]
	return p, ok
}

// missing returns the node's current missing list: every sequence in the
// recovery range it does not hold, ascending.
func (n *Node) missing() []uint32 { return n.missingInto(nil) }

// cooperators returns a copy of the node's ordered cooperator list.
func (n *Node) cooperators() []packet.NodeID {
	return append([]packet.NodeID(nil), n.myCoops...)
}

const apID packet.NodeID = 100

func TestNewNodeValidation(t *testing.T) {
	engine := sim.New()
	port := &fakePort{}
	rng := sim.Stream(1, "x")
	good := DefaultConfig(1)

	if _, err := NewNode(good, Deps{Ctx: nil, Port: port, RNG: rng}); err == nil {
		t.Fatal("nil ctx accepted")
	}
	if _, err := NewNode(good, Deps{Ctx: engine, Port: nil, RNG: rng}); err == nil {
		t.Fatal("nil port accepted")
	}
	if _, err := NewNode(good, Deps{Ctx: engine, Port: port, RNG: nil}); err == nil {
		t.Fatal("nil rng accepted")
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.BatchRequests = true; c.MaxBatch = 0 },
	} {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := NewNode(cfg, Deps{Ctx: engine, Port: port, RNG: rng}); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestHelloBeaconing(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.RunUntil(10 * time.Second)
	hellos := port.byType(packet.TypeHello)
	// ~1/s with jitter: expect 9-11 beacons in 10 s.
	if len(hellos) < 8 || len(hellos) > 12 {
		t.Fatalf("sent %d HELLOs in 10 s, want ~10", len(hellos))
	}
	if n.Stats().HellosSent != uint64(len(hellos)) {
		t.Fatalf("stats mismatch: %d vs %d", n.Stats().HellosSent, len(hellos))
	}
}

func TestHelloCarriesCooperatorsInDiscoveryOrder(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	// Hear node 3 first, then node 2.
	engine.Schedule(100*time.Millisecond, func() { rx(n, packet.NewHello(3, nil)) })
	engine.Schedule(200*time.Millisecond, func() { rx(n, packet.NewHello(2, nil)) })
	engine.RunUntil(3 * time.Second)
	hellos := port.byType(packet.TypeHello)
	last := hellos[len(hellos)-1]
	if len(last.List) != 2 || last.List[0] != 3 || last.List[1] != 2 {
		t.Fatalf("cooperator list = %v, want [3 2] (discovery order)", last.List)
	}
	coops := n.cooperators()
	if len(coops) != 2 || coops[0] != 3 || coops[1] != 2 {
		t.Fatalf("Cooperators() = %v", coops)
	}
}

func TestCandidateExpiry(t *testing.T) {
	engine, n, _, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(100*time.Millisecond, func() { rx(n, packet.NewHello(2, nil)) })
	// Node 2 goes silent; after the candidate TTL (3 s) it must drop out.
	engine.RunUntil(10 * time.Second)
	if got := n.cooperators(); len(got) != 0 {
		t.Fatalf("stale cooperator kept: %v", got)
	}
}

func TestOwnFlowReceptionAndRange(t *testing.T) {
	engine, n, _, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 5, []byte("five")))
		rx(n, packet.NewData(apID, 1, 8, []byte("eight")))
		rx(n, packet.NewData(apID, 1, 3, []byte("three")))
		rx(n, packet.NewData(apID, 1, 5, []byte("dup")))
	})
	engine.RunUntil(2 * time.Second)
	first, last, ok := n.ownRange()
	if !ok || first != 3 || last != 8 {
		t.Fatalf("ownRange = %d..%d ok=%v, want 3..8", first, last, ok)
	}
	if !n.holds(5) || !n.holds(8) || !n.holds(3) || n.holds(4) {
		t.Fatal("Have() wrong")
	}
	if p, ok := n.payload(5); !ok || string(p) != "five" {
		t.Fatalf("Payload(5) = %q, %v (duplicate overwrote?)", p, ok)
	}
	st := n.Stats()
	if st.DataDirect != 3 || st.DataDuplicate != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Default config knows the block starts at seq 1, so the missing
	// list reaches back before the first direct reception.
	want := []uint32{1, 2, 4, 6, 7}
	got := n.missing()
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
	if n.MissingCount() != 5 {
		t.Fatalf("MissingCount = %d", n.MissingCount())
	}
}

func TestMissingStrictFirstReceived(t *testing.T) {
	// KnownFirstSeq = 0: the strict "first received from the AP"
	// interpretation — the ablation variant.
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.KnownFirstSeq = 0 })
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 3, nil))
		rx(n, packet.NewData(apID, 1, 5, nil))
	})
	engine.RunUntil(2 * time.Second)
	got := n.missing()
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("strict Missing = %v, want [4]", got)
	}
}

func TestBufferingOnlyWhenRecruited(t *testing.T) {
	engine, n, _, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		// DATA for node 2 before node 2 recruits us: not buffered.
		rx(n, packet.NewData(apID, 2, 1, []byte("a")))
		// Node 2's HELLO lists us as cooperator.
		rx(n, packet.NewHello(2, []packet.NodeID{1}))
		// Now DATA for node 2 is buffered.
		rx(n, packet.NewData(apID, 2, 2, []byte("b")))
	})
	engine.RunUntil(2 * time.Second)
	if got := n.bufferedFor(2); got != 1 {
		t.Fatalf("bufferedFor(2) = %d, want 1", got)
	}
	if n.Stats().DataBuffered != 1 {
		t.Fatalf("DataBuffered = %d", n.Stats().DataBuffered)
	}
}

func TestBufferForAllAblation(t *testing.T) {
	engine, n, _, _ := newTestNode(t, func(c *Config) { c.BufferForAll = true })
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 2, 1, []byte("a"))) // no recruitment needed
	})
	engine.RunUntil(2 * time.Second)
	if got := n.bufferedFor(2); got != 1 {
		t.Fatalf("bufferedFor(2) = %d, want 1", got)
	}
}

func TestPhaseTransitions(t *testing.T) {
	engine, n, _, obs := newTestNode(t, nil)
	n.Start()
	if n.Phase() != PhaseIdle {
		t.Fatalf("initial phase = %v", n.Phase())
	}
	engine.Schedule(time.Second, func() { rx(n, packet.NewData(apID, 1, 1, nil)) })
	// Keep coverage alive at 2 s, then silence: coop at ~2s + 5s.
	engine.Schedule(2*time.Second, func() { rx(n, packet.NewData(apID, 1, 2, nil)) })
	engine.RunUntil(6 * time.Second)
	if n.Phase() != PhaseReception {
		t.Fatalf("phase at 6 s = %v, want reception (timeout restarts)", n.Phase())
	}
	engine.RunUntil(8 * time.Second)
	if n.Phase() != PhaseCoopARQ {
		t.Fatalf("phase at 8 s = %v, want coop-arq", n.Phase())
	}
	// Back to reception on new AP contact.
	engine.Schedule(0, func() { rx(n, packet.NewData(apID, 1, 3, nil)) })
	engine.RunUntil(9 * time.Second)
	if n.Phase() != PhaseReception {
		t.Fatalf("phase after re-contact = %v", n.Phase())
	}
	wantPhases := []string{"idle>reception", "reception>coop-arq", "coop-arq>reception"}
	if len(obs.phases) != len(wantPhases) {
		t.Fatalf("phases = %v, want %v", obs.phases, wantPhases)
	}
	for i := range wantPhases {
		if obs.phases[i] != wantPhases[i] {
			t.Fatalf("phases = %v, want %v", obs.phases, wantPhases)
		}
	}
}

func TestRequestCycleSingleMode(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 5, nil)) // missing 2,3,4
	})
	engine.RunUntil(8 * time.Second)
	reqs := port.byType(packet.TypeRequest)
	if len(reqs) < 6 {
		t.Fatalf("only %d REQUESTs in ~2 s of coop, want several cycles", len(reqs))
	}
	// Single mode: one seq per request, cycling 2,3,4,2,3,4...
	for i, r := range reqs {
		if len(r.Seqs) != 1 {
			t.Fatalf("request %d has %d seqs, want 1", i, len(r.Seqs))
		}
		want := uint32(2 + i%3)
		if r.Seqs[0] != want {
			t.Fatalf("request %d = seq %d, want %d", i, r.Seqs[0], want)
		}
	}
}

func TestRequestCycleBatchedMode(t *testing.T) {
	engine, n, port, _ := newTestNode(t, func(c *Config) {
		c.BatchRequests = true
		c.MaxBatch = 2
	})
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 5, nil)) // missing 2,3,4
	})
	engine.RunUntil(7 * time.Second)
	reqs := port.byType(packet.TypeRequest)
	if len(reqs) < 2 {
		t.Fatalf("only %d batched REQUESTs", len(reqs))
	}
	if len(reqs[0].Seqs) != 2 || reqs[0].Seqs[0] != 2 || reqs[0].Seqs[1] != 3 {
		t.Fatalf("first batch = %v, want [2 3]", reqs[0].Seqs)
	}
	if len(reqs[1].Seqs) != 1 || reqs[1].Seqs[0] != 4 {
		t.Fatalf("second batch = %v, want [4]", reqs[1].Seqs)
	}
}

func TestNoRequestsWhenNothingMissing(t *testing.T) {
	engine, n, port, obs := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 2, nil))
	})
	engine.RunUntil(10 * time.Second)
	if got := port.byType(packet.TypeRequest); len(got) != 0 {
		t.Fatalf("complete node sent %d REQUESTs", len(got))
	}
	if obs.completed != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", obs.completed)
	}
}

func TestRecoveryStopsRequesting(t *testing.T) {
	engine, n, port, obs := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 3, nil)) // missing 2
	})
	// Another car answers at 7 s (node in coop since ~6 s).
	engine.Schedule(7*time.Second, func() {
		rx(n, packet.NewResponse(2, 1, 2, []byte("rec")))
	})
	engine.RunUntil(12 * time.Second)
	if !n.holds(2) {
		t.Fatal("packet 2 not recovered")
	}
	if n.Stats().Recovered != 1 {
		t.Fatalf("Recovered = %d", n.Stats().Recovered)
	}
	if len(obs.recovered) != 1 || obs.recovered[0] != 2 {
		t.Fatalf("observer recovered = %v", obs.recovered)
	}
	if obs.completed != 1 {
		t.Fatalf("OnComplete fired %d times", obs.completed)
	}
	// No further requests after recovery.
	reqs := port.byType(packet.TypeRequest)
	for _, r := range reqs {
		if r.Seqs[0] != 2 {
			t.Fatalf("unexpected request for seq %d", r.Seqs[0])
		}
	}
	n2 := len(reqs)
	engine.RunUntil(20 * time.Second)
	if len(port.byType(packet.TypeRequest)) != n2 {
		t.Fatal("node kept requesting after full recovery")
	}
}

func TestDuplicateResponseCounted(t *testing.T) {
	engine, n, _, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewResponse(2, 1, 1, nil)) // already held
	})
	engine.RunUntil(2 * time.Second)
	if st := n.Stats(); st.RecoveredDuplicate != 1 || st.Recovered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCooperatorRespondsWithOrderBackoff(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	var reqAt time.Duration
	engine.Schedule(time.Second, func() {
		// Node 2 recruits us with order 1 (second cooperator).
		rx(n, packet.NewHello(2, []packet.NodeID{9, 1}))
		// We overhear DATA for node 2.
		rx(n, packet.NewData(apID, 2, 42, []byte("buffered")))
		// Node 2 requests it.
		reqAt = engine.Now()
		rx(n, packet.NewRequest(2, []uint32{42}))
	})
	var respAt time.Duration = -1
	engine.RunUntil(5 * time.Second)
	resps := port.byType(packet.TypeResponse)
	if len(resps) != 1 {
		t.Fatalf("sent %d responses, want 1", len(resps))
	}
	_ = respAt
	r := resps[0]
	if r.Dst != 2 || r.Seq != 42 || string(r.Payload) != "buffered" {
		t.Fatalf("response = %+v", r)
	}
	_ = reqAt
	if n.Stats().ResponsesSent != 1 {
		t.Fatalf("ResponsesSent = %d", n.Stats().ResponsesSent)
	}
}

func TestResponseDelayMatchesOrder(t *testing.T) {
	// Order 2 with the 15 ms response slot: the response fires 30 ms after the
	// request.
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	const reqTime = time.Second
	engine.Schedule(reqTime, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{8, 9, 1})) // our order = 2
		rx(n, packet.NewData(apID, 2, 7, nil))
		rx(n, packet.NewRequest(2, []uint32{7}))
	})
	// Sample the port just before and just after the expected fire time.
	var before, after int
	engine.Schedule(reqTime+29*time.Millisecond, func() { before = len(port.byType(packet.TypeResponse)) })
	engine.Schedule(reqTime+31*time.Millisecond, func() { after = len(port.byType(packet.TypeResponse)) })
	engine.RunUntil(2 * time.Second)
	if before != 0 || after != 1 {
		t.Fatalf("response timing wrong: before=%d after=%d", before, after)
	}
}

func TestResponseSuppressionOnOverhear(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{9, 1})) // order 1 => 15 ms delay
		rx(n, packet.NewData(apID, 2, 7, nil))
		rx(n, packet.NewRequest(2, []uint32{7}))
	})
	// Cooperator 9 answers first at +5 ms; our pending response must be
	// cancelled.
	engine.Schedule(time.Second+5*time.Millisecond, func() {
		rx(n, packet.NewResponse(9, 2, 7, nil))
	})
	engine.RunUntil(2 * time.Second)
	if got := port.byType(packet.TypeResponse); len(got) != 0 {
		t.Fatalf("suppressed response was sent: %v", got)
	}
	if n.Stats().ResponsesSuppressed != 1 {
		t.Fatalf("ResponsesSuppressed = %d", n.Stats().ResponsesSuppressed)
	}
}

func TestNoResponseWithoutRecruitment(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		// We hear node 2 but its HELLO does NOT list us.
		rx(n, packet.NewHello(2, []packet.NodeID{9}))
		rx(n, packet.NewData(apID, 2, 7, nil)) // not buffered either
		rx(n, packet.NewRequest(2, []uint32{7}))
	})
	engine.RunUntil(2 * time.Second)
	if got := port.byType(packet.TypeResponse); len(got) != 0 {
		t.Fatalf("un-recruited node responded: %v", got)
	}
}

func TestRequestForUnbufferedPacketIgnored(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{1}))
		rx(n, packet.NewRequest(2, []uint32{99})) // never overheard
	})
	engine.RunUntil(2 * time.Second)
	if got := port.byType(packet.TypeResponse); len(got) != 0 {
		t.Fatalf("responded without holding the packet: %v", got)
	}
}

func TestBatchedRequestServedSequentially(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{1})) // order 0
		rx(n, packet.NewData(apID, 2, 1, nil))
		rx(n, packet.NewData(apID, 2, 3, nil))
		rx(n, packet.NewRequest(2, []uint32{1, 2, 3}))
	})
	engine.RunUntil(2 * time.Second)
	resps := port.byType(packet.TypeResponse)
	if len(resps) != 2 {
		t.Fatalf("sent %d responses, want 2 (held packets only)", len(resps))
	}
	if resps[0].Seq != 1 || resps[1].Seq != 3 {
		t.Fatalf("response seqs = %d, %d; want 1, 3", resps[0].Seq, resps[1].Seq)
	}
}

func TestNoCoopBaseline(t *testing.T) {
	engine, n, port, _ := newTestNode(t, func(c *Config) { c.CoopEnabled = false })
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 5, nil))
		rx(n, packet.NewHello(2, []packet.NodeID{1}))
		rx(n, packet.NewData(apID, 2, 3, nil))
		rx(n, packet.NewRequest(2, []uint32{3}))
	})
	engine.RunUntil(15 * time.Second)
	if len(port.sent) != 0 {
		t.Fatalf("no-coop node transmitted: %v", port.sent)
	}
	// It still records its own receptions.
	if n.Stats().DataDirect != 2 {
		t.Fatalf("DataDirect = %d", n.Stats().DataDirect)
	}
	// And still recovers nothing / buffers nothing.
	if n.bufferedFor(2) != 0 {
		t.Fatal("no-coop node buffered data")
	}
}

func TestPortErrorsDoNotPanic(t *testing.T) {
	engine := sim.New()
	port := &fakePort{err: errors.New("queue full")}
	cfg := DefaultConfig(1)
	n, err := NewNode(cfg, Deps{Ctx: engine, Port: port, RNG: sim.Stream(1, "x")})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 3, nil))
	})
	engine.RunUntil(10 * time.Second)
	if n.Stats().HellosSent != 0 || n.Stats().RequestsSent != 0 {
		t.Fatalf("stats counted failed sends: %+v", n.Stats())
	}
}

func TestReEnteringCoverageStopsRequests(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 4, nil))
	})
	// Coop starts at ~6 s. New AP contact at 8 s.
	engine.Schedule(8*time.Second, func() { rx(n, packet.NewData(apID, 1, 10, nil)) })
	engine.RunUntil(8500 * time.Millisecond)
	countAt8 := len(port.byType(packet.TypeRequest))
	if countAt8 == 0 {
		t.Fatal("no requests before re-contact")
	}
	// Requests must not continue while in coverage (next 4 s < timeout).
	engine.RunUntil(12 * time.Second)
	if got := len(port.byType(packet.TypeRequest)); got != countAt8 {
		t.Fatalf("requests continued in coverage: %d -> %d", countAt8, got)
	}
	// And the range extended to 10: missing now 2,3,5,6,7,8,9.
	if n.MissingCount() != 7 {
		t.Fatalf("MissingCount = %d, want 7", n.MissingCount())
	}
}

func TestPhaseString(t *testing.T) {
	for _, tc := range []struct {
		p    Phase
		want string
	}{
		{PhaseIdle, "idle"}, {PhaseReception, "reception"},
		{PhaseCoopARQ, "coop-arq"}, {Phase(9), "Phase(9)"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}
