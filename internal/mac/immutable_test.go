package mac_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// sentFrame is a frame as the medium put it on the air, next to a deep
// copy taken at that instant.
type sentFrame struct {
	f    *packet.Frame
	copy packet.Frame
}

// txRecorder is a mac.Tracer that deep-copies every frame at OnTx.
type txRecorder struct{ sent []sentFrame }

func (r *txRecorder) OnTx(_ packet.NodeID, f *packet.Frame, _, _ time.Duration) {
	c := *f
	c.Seqs, c.List, c.Payload = slices.Clone(f.Seqs), slices.Clone(f.List), slices.Clone(f.Payload)
	r.sent = append(r.sent, sentFrame{f, c})
}
func (*txRecorder) OnRx(packet.NodeID, *packet.Frame, mac.RxMeta)                      {}
func (*txRecorder) OnDrop(packet.NodeID, *packet.Frame, time.Duration, mac.DropReason) {}

// roundCounts tallies what a contract round exercised.
type roundCounts struct {
	tx        map[packet.Type]int
	corrupt   int // DeliverCorrupt deliveries
	recovered uint64
}

// runContractRound runs one C-ARQ round over a real medium: an AP
// streaming DATA to a static three-car platoon for 20 s, then the cars'
// HELLO, REQUEST and RESPONSE recovery once the AP falls silent. Car 3
// combines corrupt copies (mac.Config.DeliverCorrupt). mutate, if
// non-nil, runs in every car's handler after the protocol node.
func runContractRound(t *testing.T, mutate func(*packet.Frame)) (*txRecorder, roundCounts) {
	t.Helper()
	engine := sim.New()
	rec := &txRecorder{}
	medium := mac.NewMedium(engine, radio.MustChannel(radio.DefaultConfig()), rec)
	at := func(x float64) mac.PositionFunc {
		return func(time.Duration) geom.Point { return geom.Point{X: x} }
	}
	apSt, err := medium.AddStation(100, at(0), nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cars := []packet.NodeID{1, 2, 3}
	if _, err := ap.New(engine, apSt, ap.Config{
		ID: 100, Flows: cars, PacketsPerSecond: 5, PayloadBytes: 1000,
		Repeats: 1, Stop: 20 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	counts := roundCounts{tx: make(map[packet.Type]int)}
	var nodes []*carq.Node
	for i, id := range cars {
		macCfg, carqCfg := mac.DefaultConfig(), carq.DefaultConfig(id)
		if id == 3 {
			macCfg.DeliverCorrupt, carqCfg.FrameCombining = true, true
		}
		st, err := medium.AddStation(id, at(170+15*float64(i)), nil, macCfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := carq.NewNode(carqCfg, carq.Deps{
			Ctx: engine, Port: st, RNG: sim.Stream(1, fmt.Sprintf("carq-%v", id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.SetHandler(mac.HandlerFunc(func(f *packet.Frame, meta mac.RxMeta) {
			if meta.Corrupt {
				counts.corrupt++
			}
			node.HandleFrame(f, meta)
			if mutate != nil {
				mutate(f)
			}
		}))
		node.Start()
		nodes = append(nodes, node)
	}
	engine.RunUntil(40 * time.Second)
	for _, s := range rec.sent {
		counts.tx[s.f.Type]++
	}
	for _, n := range nodes {
		counts.recovered += n.Stats().Recovered
	}
	return rec, counts
}

// normalized returns f with empty slices made nil: Decode leaves an
// empty list or payload nil, whatever the sender passed.
func normalized(f packet.Frame) packet.Frame {
	if len(f.Seqs) == 0 {
		f.Seqs = nil
	}
	if len(f.List) == 0 {
		f.List = nil
	}
	if len(f.Payload) == 0 {
		f.Payload = nil
	}
	return f
}

// contractViolations checks every sent frame at round end: it must still
// equal its copy from OnTx, encode to WireSize bytes and decode back to
// that copy. It returns one line per violation.
func contractViolations(sent []sentFrame) []string {
	var out []string
	for i, s := range sent {
		if !reflect.DeepEqual(*s.f, s.copy) {
			out = append(out, fmt.Sprintf("frame %d (%v) changed after Send: was %v", i, s.f, &s.copy))
			continue
		}
		enc, err := s.f.Encode()
		if err != nil {
			out = append(out, fmt.Sprintf("frame %d (%v): encode: %v", i, s.f, err))
			continue
		}
		if len(enc) != s.f.WireSize() {
			out = append(out, fmt.Sprintf("frame %d (%v): %d encoded bytes, WireSize %d", i, s.f, len(enc), s.f.WireSize()))
		}
		back, err := packet.Decode(enc)
		if err != nil {
			out = append(out, fmt.Sprintf("frame %d (%v): decode: %v", i, s.f, err))
			continue
		}
		if !reflect.DeepEqual(normalized(*back), normalized(s.copy)) {
			out = append(out, fmt.Sprintf("frame %d: decodes to %v, want %v", i, back, &s.copy))
		}
	}
	return out
}

// TestDeliveredFramesImmutable: the medium hands receivers and the
// tracer the sender's own frame, so the contract that frames are
// immutable from Send on is what keeps every receiver's view equal to
// the sender's. A real round — DATA, HELLO, REQUEST/RESPONSE recovery
// and a frame-combining receiver — must leave every frame as it was
// sent, and each must round-trip the packet codec. A handler that
// mutates a delivered frame must be caught.
func TestDeliveredFramesImmutable(t *testing.T) {
	rec, counts := runContractRound(t, nil)
	for _, typ := range []packet.Type{packet.TypeData, packet.TypeHello, packet.TypeRequest, packet.TypeResponse} {
		if counts.tx[typ] == 0 {
			t.Fatalf("round sent no %v frames (sent %v); it does not exercise the contract", typ, counts.tx)
		}
	}
	if counts.corrupt == 0 || counts.recovered == 0 {
		t.Fatalf("round had %d corrupt deliveries and %d recoveries; want both > 0", counts.corrupt, counts.recovered)
	}
	if v := contractViolations(rec.sent); len(v) > 0 {
		t.Fatalf("%d of %d frames break the contract; first: %s", len(v), len(rec.sent), v[0])
	}

	for _, tc := range []struct {
		name   string
		mutate func(*packet.Frame)
	}{
		{"payload", func(f *packet.Frame) {
			if len(f.Payload) > 0 {
				f.Payload[0]++
			}
		}},
		{"list", func(f *packet.Frame) {
			if len(f.List) > 0 {
				f.List[0]++
			}
		}},
	} {
		t.Run("mutating handler/"+tc.name, func(t *testing.T) {
			rec, _ := runContractRound(t, tc.mutate)
			if len(contractViolations(rec.sent)) == 0 {
				t.Fatal("a handler mutated delivered frames and no violation was reported")
			}
		})
	}
}
