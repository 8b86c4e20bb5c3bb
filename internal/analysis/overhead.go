package analysis

import (
	"time"

	"repro/internal/carq"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Overhead summarises the protocol's transmission cost in one round — the
// currency of the batched-REQUEST ablation and the epidemic comparison.
type Overhead struct {
	DataTx     int
	HelloTx    int
	RequestTx  int
	ResponseTx int
	// Bytes aggregates wire bytes per frame type.
	HelloBytes    int
	RequestBytes  int
	ResponseBytes int
}

// MeasureOverhead counts protocol transmissions in a round trace, from
// its tally of sends.
func MeasureOverhead(round *trace.Collector) Overhead {
	sent := &round.Sent
	hello, request, response := sent.Frame(packet.TypeHello), sent.Frame(packet.TypeRequest), sent.Frame(packet.TypeResponse)
	return Overhead{
		DataTx:        sent.Frame(packet.TypeData).Count,
		HelloTx:       hello.Count,
		RequestTx:     request.Count,
		ResponseTx:    response.Count,
		HelloBytes:    hello.Bytes,
		RequestBytes:  request.Bytes,
		ResponseBytes: response.Bytes,
	}
}

// ControlTx returns the non-DATA transmission count.
func (o Overhead) ControlTx() int { return o.HelloTx + o.RequestTx + o.ResponseTx }

// LastRecoveryLatencies returns, per round, the delay from the car's
// Cooperative-ARQ phase entry to its final cooperative recovery — how long
// the car needed to extract everything its cooperators had. It does not
// require the missing list to drain completely, which it rarely does when
// the recovery range reaches back to packets nobody received.
func LastRecoveryLatencies(rounds []*trace.Collector, car packet.NodeID) []float64 {
	var out []float64
	for _, round := range rounds {
		var coopStart time.Duration = -1
		for _, p := range round.Phases {
			if p.Node == car && p.To == carq.PhaseCoopARQ {
				coopStart = p.At
				break
			}
		}
		if coopStart < 0 {
			continue
		}
		var last time.Duration = -1
		for _, r := range round.Recovered {
			if r.Node == car && r.At >= coopStart && r.At > last {
				last = r.At
			}
		}
		if last < 0 {
			continue
		}
		out = append(out, (last - coopStart).Seconds())
	}
	return out
}
