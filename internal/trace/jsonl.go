package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// line is the JSONL envelope: a kind tag plus exactly one populated record.
type line struct {
	Kind      string          `json:"kind"`
	Tx        *TxRecord       `json:"tx,omitempty"`
	Rx        *RxRecord       `json:"rx,omitempty"`
	Drop      *DropRecord     `json:"drop,omitempty"`
	Phase     *PhaseRecord    `json:"phase,omitempty"`
	Recovered *RecoveryRecord `json:"recovered,omitempty"`
	Completed *CompleteRecord `json:"completed,omitempty"`
	Vehicle   *VehicleRecord  `json:"veh,omitempty"`
}

// WriteJSONL streams every record as one JSON object per line, in record-
// category order (tx, rx, drops, phases, recoveries, completions); each
// category is chronological. One line record is reused across the whole
// stream (the encoder sees a pointer), so writing allocates per category,
// not per record — city-scale traffic streams hold hundreds of thousands.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var l line
	emit := func() error {
		err := enc.Encode(&l)
		l = line{}
		return err
	}
	for i := range c.Tx {
		l.Kind, l.Tx = "tx", &c.Tx[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write tx: %w", err)
		}
	}
	for i := range c.Rx {
		l.Kind, l.Rx = "rx", &c.Rx[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write rx: %w", err)
		}
	}
	for i := range c.Drops {
		l.Kind, l.Drop = "drop", &c.Drops[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write drop: %w", err)
		}
	}
	for i := range c.Phases {
		l.Kind, l.Phase = "phase", &c.Phases[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write phase: %w", err)
		}
	}
	for i := range c.Recovered {
		l.Kind, l.Recovered = "recovered", &c.Recovered[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write recovery: %w", err)
		}
	}
	for i := range c.Completed {
		l.Kind, l.Completed = "completed", &c.Completed[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write completion: %w", err)
		}
	}
	for i := range c.Vehicles {
		l.Kind, l.Vehicle = "veh", &c.Vehicles[i]
		if err := emit(); err != nil {
			return fmt.Errorf("trace: write vehicle: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream produced by WriteJSONL back into a Collector,
// and tallies its tx lines into Sent. A stream carries no tally of its
// own, so a collector whose Tx does not account for its Sent, such as a
// stored round, reads back with the tally of the Tx it wrote.
func ReadJSONL(r io.Reader) (*Collector, error) {
	c := &Collector{}
	dec := json.NewDecoder(r)
	for lineNo := 1; ; lineNo++ {
		var l line
		if err := dec.Decode(&l); err != nil {
			if err == io.EOF {
				return c, nil
			}
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch l.Kind {
		case "tx":
			if l.Tx == nil {
				return nil, fmt.Errorf("trace: line %d: tx record missing body", lineNo)
			}
			c.Tx = append(c.Tx, *l.Tx)
			c.Sent.add(l.Tx.Type, l.Tx.Flow, l.Tx.Seq, l.Tx.Bytes)
		case "rx":
			if l.Rx == nil {
				return nil, fmt.Errorf("trace: line %d: rx record missing body", lineNo)
			}
			c.Rx = append(c.Rx, *l.Rx)
		case "drop":
			if l.Drop == nil {
				return nil, fmt.Errorf("trace: line %d: drop record missing body", lineNo)
			}
			c.Drops = append(c.Drops, *l.Drop)
		case "phase":
			if l.Phase == nil {
				return nil, fmt.Errorf("trace: line %d: phase record missing body", lineNo)
			}
			c.Phases = append(c.Phases, *l.Phase)
		case "recovered":
			if l.Recovered == nil {
				return nil, fmt.Errorf("trace: line %d: recovery record missing body", lineNo)
			}
			c.Recovered = append(c.Recovered, *l.Recovered)
		case "completed":
			if l.Completed == nil {
				return nil, fmt.Errorf("trace: line %d: completion record missing body", lineNo)
			}
			c.Completed = append(c.Completed, *l.Completed)
		case "veh":
			if l.Vehicle == nil {
				return nil, fmt.Errorf("trace: line %d: vehicle record missing body", lineNo)
			}
			c.Vehicles = append(c.Vehicles, *l.Vehicle)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, l.Kind)
		}
	}
}
