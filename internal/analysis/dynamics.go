package analysis

import (
	"slices"
	"sort"
	"time"

	"repro/internal/carq"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RecoveryDynamics computes how a car's missing list drains during the
// Cooperative-ARQ phase of one round: a step series of missing-packet
// count versus seconds since phase entry. The initial level is the car's
// pre-cooperation loss count inside its reception window; every recovery
// event steps it down. This is the recovery-progress view the paper's
// "repeated over the actualised, shorter list" prose describes.
func RecoveryDynamics(round *trace.Collector, car packet.NodeID) *stats.Series {
	s := &stats.Series{Name: "missing packets, car " + car.String()}
	var coopStart time.Duration = -1
	for _, p := range round.Phases {
		if p.Node == car && p.To == carq.PhaseCoopARQ {
			coopStart = p.At
			break
		}
	}
	if coopStart < 0 {
		return s
	}
	direct := DirectSeqs(round, car, car)
	if len(direct) == 0 {
		return s
	}
	first, last := direct[0], direct[len(direct)-1]
	missing := 0
	for _, seq := range round.DataSentSeqs(car) {
		if seq < first || seq > last {
			continue
		}
		if _, got := slices.BinarySearch(direct, seq); !got {
			missing++
		}
	}
	var recs []trace.RecoveryRecord
	for _, r := range round.Recovered {
		if r.Node == car && r.At >= coopStart && r.Seq >= first && r.Seq <= last {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })

	s.Append(0, float64(missing))
	for _, r := range recs {
		missing--
		s.Append((r.At - coopStart).Seconds(), float64(missing))
	}
	return s
}

// HalfRecoveryTime returns the time (seconds since coop entry) at which
// the car had recovered half of its recoverable losses, or -1 when it
// never did. "Recoverable" means it was eventually recovered within the
// round, so the metric describes the protocol's speed, not its ceiling.
func HalfRecoveryTime(round *trace.Collector, car packet.NodeID) float64 {
	s := RecoveryDynamics(round, car)
	if s.Len() < 2 {
		return -1
	}
	initial := s.Y[0]
	final := s.Y[s.Len()-1]
	target := final + (initial-final)/2
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] <= target {
			return s.X[i]
		}
	}
	return -1
}
