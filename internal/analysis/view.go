package analysis

import (
	"repro/internal/packet"
	"repro/internal/trace"
)

// StudyView returns what the readers in this package (and
// trace.DataSentSeqs) read of a round: its transmissions' tally, phase
// changes, recoveries and completions, shared with round, and its DATA
// receptions, copied into an array of their own length so the round's
// full reception array can be freed. The transmission records, HELLO,
// REQUEST and RESPONSE receptions, drops and vehicle samples are left
// out: no study reads them, so a computed round's full arrays are freed
// once it is projected. A stored round is its study view, so a study
// computes the same result from a computed round and from a loaded one.
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
