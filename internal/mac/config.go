// Package mac models an 802.11-style broadcast MAC (DCF without RTS/CTS,
// MAC ACKs or retransmissions — exactly the monitor-mode, retry-disabled
// configuration the paper's prototype used) and the shared Medium that
// connects stations through the radio channel. The medium resolves
// per-receiver collisions with a capture rule and delivers frames
// promiscuously, as the prototype's monitor-mode capture did.
//
// Contention uses 802.11b DSSS timing, the PHY of the paper's 1 Mb/s
// experiments: a station defers a 50 µs DIFS plus a back-off of 0-31
// slots of 20 µs. During a collision the strongest frame survives only if
// it exceeds the interference by the 10 dB capture margin.
package mac

import (
	"fmt"
	"time"

	"repro/internal/radio"
)

// The 802.11b DSSS timing and the capture rule (see the package doc).
const (
	// slotTime is the contention slot duration.
	slotTime = 20 * time.Microsecond
	// difs is the idle period required before contention starts.
	difs = 50 * time.Microsecond
	// cwMin is the contention window: back-off slots are drawn uniformly
	// from [0, cwMin]. Broadcast frames never double the window (there
	// are no retries).
	cwMin = 31
	// captureThresholdDB: during a collision, the strongest frame is
	// still received if it exceeds the sum of interferers by this margin.
	captureThresholdDB = 10
)

// Config holds per-station MAC parameters.
type Config struct {
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
		CSThresholdDBm: -85,
		Modulation:     radio.DSSS1Mbps,
		QueueCap:       512,
	}
}

func (c Config) validate() error {
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
