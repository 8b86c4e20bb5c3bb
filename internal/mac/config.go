// Package mac models an 802.11-style broadcast MAC (DCF without RTS/CTS,
// MAC ACKs or retransmissions — exactly the monitor-mode, retry-disabled
// configuration the paper's prototype used) and the shared Medium that
// connects stations through the radio channel. The medium resolves
// per-receiver collisions with a capture rule and delivers frames
// promiscuously, as the prototype's monitor-mode capture did.
package mac

import (
	"fmt"
	"time"

	"repro/internal/radio"
)

// Config holds per-station MAC parameters. DefaultConfig matches 802.11b
// DSSS timing, the PHY the paper's 1 Mb/s experiments used.
type Config struct {
	// SlotTime is the contention slot duration.
	SlotTime time.Duration
	// DIFS is the idle period required before contention starts.
	DIFS time.Duration
	// CWMin is the contention window: back-off slots are drawn uniformly
	// from [0, CWMin]. Broadcast frames never double the window (there
	// are no retries).
	CWMin int
	// CSThresholdDBm is the carrier-sense (energy-detect) threshold: the
	// medium is busy for a station when any ongoing transmission arrives
	// above this power.
	CSThresholdDBm float64
	// Modulation is the PHY rate used for all transmissions.
	Modulation radio.Modulation
	// QueueCap bounds the transmit queue; Send fails when full.
	QueueCap int
	// DeliverCorrupt also delivers channel-corrupted frames to the
	// handler, flagged with RxMeta.Corrupt — the soft-information path
	// frame-combining receivers need. Frames lost to collisions or
	// half-duplex are never delivered (there is no usable signal to
	// combine). Corrupt deliveries still appear as drops in the trace.
	DeliverCorrupt bool
}

// DefaultConfig returns 802.11b-like parameters at 1 Mb/s.
func DefaultConfig() Config {
	return Config{
		SlotTime:       20 * time.Microsecond,
		DIFS:           50 * time.Microsecond,
		CWMin:          31,
		CSThresholdDBm: -85,
		Modulation:     radio.DSSS1Mbps,
		QueueCap:       512,
	}
}

func (c Config) validate() error {
	if c.SlotTime <= 0 || c.DIFS <= 0 {
		return fmt.Errorf("mac: non-positive timing (slot=%v difs=%v)", c.SlotTime, c.DIFS)
	}
	if c.CWMin < 0 {
		return fmt.Errorf("mac: negative CWMin %d", c.CWMin)
	}
	if c.Modulation.BitRate <= 0 {
		return fmt.Errorf("mac: modulation %q has no bit rate", c.Modulation.Name)
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("mac: non-positive queue capacity %d", c.QueueCap)
	}
	return nil
}

// DropReason explains why a frame was not delivered to a receiver.
type DropReason uint8

// Drop reasons recorded in traces.
const (
	DropChannel    DropReason = iota + 1 // PER coin flip failed (noise/fading)
	DropCollision                        // concurrent transmission, no capture
	DropHalfDuplex                       // receiver was transmitting
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropChannel:
		return "channel"
	case DropCollision:
		return "collision"
	case DropHalfDuplex:
		return "half-duplex"
	default:
		return fmt.Sprintf("DropReason(%d)", uint8(r))
	}
}
