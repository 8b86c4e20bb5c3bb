package carq

import (
	"testing"
	"time"

	"repro/internal/packet"
)

// TestHelloJitterBounds checks beacons stay within +-10% of the interval.
func TestHelloJitterBounds(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.RunUntil(60 * time.Second)
	hellos := port.byType(packet.TypeHello)
	if len(hellos) < 50 {
		t.Fatalf("only %d hellos in 60 s", len(hellos))
	}
	// Reconstruct the inter-beacon gaps by scheduling probes is
	// overkill; instead check the count implies mean interval in
	// [0.9s, 1.1s].
	mean := 60.0 / float64(len(hellos))
	if mean < 0.85 || mean > 1.15 {
		t.Fatalf("mean hello interval %.3fs outside jitter bounds", mean)
	}
}

// TestResponseWindowScalesWithCooperators checks request pacing grows with
// the advertised cooperator count, giving every order its slot.
func TestResponseWindowScalesWithCooperators(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	// Two cooperators, beaconing throughout so they never expire from
	// the candidate set (TTL is 3x the hello interval).
	for s := 0; s < 10; s++ {
		at := 100*time.Millisecond + time.Duration(s)*time.Second
		engine.Schedule(at, func() {
			rx(n, packet.NewHello(2, nil))
			rx(n, packet.NewHello(3, nil))
		})
	}
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 4, nil)) // missing 2,3
	})
	engine.RunUntil(10 * time.Second)
	reqs := port.byType(packet.TypeRequest)
	if len(reqs) < 4 {
		t.Fatalf("too few requests: %d", len(reqs))
	}
	// window = 2 coops * 15ms + 1 * 12ms + 10ms = 52ms per request:
	// in ~4 s of coop there must be fewer than 4s/52ms = ~77 requests
	// and more than 4s/(2*52ms) = ~38.
	coopDur := 4 * time.Second
	maxReqs := int(coopDur/(52*time.Millisecond)) + 2
	minReqs := int(coopDur / (110 * time.Millisecond))
	if len(reqs) > maxReqs || len(reqs) < minReqs {
		t.Fatalf("request count %d outside [%d, %d] for 2-cooperator pacing", len(reqs), minReqs, maxReqs)
	}
}

// TestServeOrderExpiry checks a recruitment lapses when the recruiter's
// HELLOs stop.
func TestServeOrderExpiry(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{1}))
		rx(n, packet.NewData(apID, 2, 7, []byte("b")))
	})
	// 10 s later (past CandidateTTL=3s) node 2 requests; another HELLO
	// from a third node triggers the pruning pass first.
	engine.Schedule(10*time.Second, func() {
		rx(n, packet.NewHello(3, nil)) // prompts refreshCooperators
		rx(n, packet.NewRequest(2, []uint32{7}))
	})
	engine.RunUntil(12 * time.Second)
	if got := port.byType(packet.TypeResponse); len(got) != 0 {
		t.Fatalf("responded for an expired recruitment: %v", got)
	}
}

// TestReRecruitmentAfterExpiry checks a fresh HELLO re-establishes the
// serving relationship.
func TestReRecruitmentAfterExpiry(t *testing.T) {
	engine, n, port, _ := newTestNode(t, nil)
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewHello(2, []packet.NodeID{1}))
		rx(n, packet.NewData(apID, 2, 7, []byte("b")))
	})
	engine.Schedule(10*time.Second, func() {
		rx(n, packet.NewHello(3, nil))                // prune
		rx(n, packet.NewHello(2, []packet.NodeID{1})) // re-recruit
		rx(n, packet.NewRequest(2, []uint32{7}))
	})
	engine.RunUntil(12 * time.Second)
	if got := port.byType(packet.TypeResponse); len(got) != 1 {
		t.Fatalf("re-recruited node sent %d responses, want 1", len(got))
	}
}

// TestBatchRequestCursorAdvances checks the batched cursor walks the whole
// missing list before wrapping.
func TestBatchRequestCursorAdvances(t *testing.T) {
	engine, n, port, _ := newTestNode(t, func(c *Config) {
		c.BatchRequests = true
		c.MaxBatch = 3
	})
	n.Start()
	engine.Schedule(time.Second, func() {
		rx(n, packet.NewData(apID, 1, 1, nil))
		rx(n, packet.NewData(apID, 1, 9, nil)) // missing 2..8 (7 seqs)
	})
	engine.RunUntil(8 * time.Second)
	reqs := port.byType(packet.TypeRequest)
	if len(reqs) < 3 {
		t.Fatalf("requests = %d", len(reqs))
	}
	// First cycle: [2,3,4], [5,6,7], [8]; then wrap to [2,3,4] again.
	wantLens := []int{3, 3, 1, 3}
	for i, want := range wantLens {
		if i >= len(reqs) {
			break
		}
		if len(reqs[i].Seqs) != want {
			t.Fatalf("request %d has %d seqs, want %d (%v)", i, len(reqs[i].Seqs), want, reqs[i].Seqs)
		}
	}
	if reqs[0].Seqs[0] != 2 || reqs[1].Seqs[0] != 5 || reqs[2].Seqs[0] != 8 {
		t.Fatalf("cursor walk wrong: %v %v %v", reqs[0].Seqs, reqs[1].Seqs, reqs[2].Seqs)
	}
}
