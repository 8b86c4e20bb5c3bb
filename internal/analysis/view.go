package analysis

import (
	"repro/internal/packet"
	"repro/internal/trace"
)

// StudyView returns what the readers in this package (and
// trace.DataSentSeqs) read of a round: its transmissions' tally, phase
// changes, recoveries and completions, shared with round, and its DATA
// receptions, copied into an array of their own length. The transmission
// records, HELLO, REQUEST and RESPONSE receptions, drops and vehicle
// samples are left out: no study reads them.
//
// It is the oracle for a study collector (trace.NewStudyCollector),
// which records this and no more as its round runs: a study round's
// trace equals the study view of the same round recorded in full, which
// is what a study computes from a computed round and from a stored one
// alike.
func StudyView(round *trace.Collector) *trace.Collector {
	n := 0
	for i := range round.Rx {
		if round.Rx[i].Type == packet.TypeData {
			n++
		}
	}
	var rx []trace.RxRecord
	if n > 0 {
		rx = make([]trace.RxRecord, 0, n)
		for _, r := range round.Rx {
			if r.Type == packet.TypeData {
				rx = append(rx, r)
			}
		}
	}
	return &trace.Collector{
		Sent:      round.Sent,
		Rx:        rx,
		Phases:    round.Phases,
		Recovered: round.Recovered,
		Completed: round.Completed,
	}
}
