// Package radio models wireless propagation: deterministic path loss,
// time-correlated log-normal shadowing, small-scale fading, and
// SNR-to-packet-error-rate curves for 802.11-style modulations. Together
// these reproduce the qualitative link behaviour of the paper's urban
// testbed: loss grows with distance, coverage edges are gradual and bursty,
// and distinct platoon positions see partially decorrelated loss — the
// diversity Cooperative ARQ exploits.
package radio

import (
	"fmt"
	"math"
)

// PathLoss converts a transmitter-receiver distance (metres) into an
// attenuation in dB. Implementations must be monotonically non-decreasing
// in distance.
type PathLoss interface {
	// LossDB returns the path attenuation in dB at distance d metres.
	// Distances below 1 m are clamped to 1 m.
	LossDB(d float64) float64
}

// FreeSpace is the Friis free-space model.
type FreeSpace struct {
	// FreqHz is the carrier frequency, e.g. 2.4e9.
	FreqHz float64
}

// LossDB implements PathLoss.
func (m FreeSpace) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	// 20 log10(4 pi d f / c)
	return 20*math.Log10(d) + 20*math.Log10(m.FreqHz) - 147.55
}

// LogDistance is the log-distance model: free-space up to the reference
// distance, then a configurable exponent. Exponents of 2.7–3.5 are typical
// of urban street environments.
type LogDistance struct {
	FreqHz   float64
	RefDist  float64 // reference distance d0 in metres, typically 1
	Exponent float64 // path-loss exponent n
}

// LossDB implements PathLoss.
func (m LogDistance) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	d0 := m.RefDist
	if d0 <= 0 {
		d0 = 1
	}
	pl0 := FreeSpace{FreqHz: m.FreqHz}.LossDB(d0)
	if d <= d0 {
		return pl0
	}
	return pl0 + 10*m.Exponent*math.Log10(d/d0)
}

// fastLossFunc returns a closure computing exactly LossDB's result with
// the model's constants hoisted out of the per-call path. The channel
// calls it once per candidate receiver of every frame, so the reference
// losses and crossover points are worth precomputing. Unknown models fall
// back to their LossDB method.
func fastLossFunc(pl PathLoss) func(d float64) float64 {
	switch m := pl.(type) {
	case LogDistance:
		d0 := m.RefDist
		if d0 <= 0 {
			d0 = 1
		}
		pl0 := FreeSpace{FreqHz: m.FreqHz}.LossDB(d0)
		n10 := 10 * m.Exponent
		return func(d float64) float64 {
			if d < 1 {
				d = 1
			}
			if d <= d0 {
				return pl0
			}
			return pl0 + n10*math.Log10(d/d0)
		}
	case TwoRay:
		dc := m.crossover()
		fs := FreeSpace{FreqHz: m.FreqHz}
		fsAtDc := fs.LossDB(dc)
		// Same term order as FreeSpace.LossDB so the floats match
		// bit-for-bit.
		logF := 20 * math.Log10(m.FreqHz)
		return func(d float64) float64 {
			if d < 1 {
				d = 1
			}
			if d <= dc {
				return 20*math.Log10(d) + logF - 147.55
			}
			return fsAtDc + 40*math.Log10(d/dc)
		}
	case FreeSpace:
		logF := 20 * math.Log10(m.FreqHz)
		return func(d float64) float64 {
			if d < 1 {
				d = 1
			}
			return 20*math.Log10(d) + logF - 147.55
		}
	default:
		return pl.LossDB
	}
}

// TwoRay is the two-ray ground-reflection model: free-space below the
// crossover distance, 4th-power decay beyond it. Suited to open highway
// scenarios with low antennas.
type TwoRay struct {
	FreqHz float64
	TxH    float64 // transmitter antenna height, metres
	RxH    float64 // receiver antenna height, metres
}

// crossover returns the distance beyond which the 4th-power term applies.
func (m TwoRay) crossover() float64 {
	c := 299792458.0
	lambda := c / m.FreqHz
	return 4 * math.Pi * m.TxH * m.RxH / lambda
}

// LossDB implements PathLoss.
func (m TwoRay) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	dc := m.crossover()
	fs := FreeSpace{FreqHz: m.FreqHz}
	if d <= dc {
		return fs.LossDB(d)
	}
	// Continuous at the crossover: free-space loss there plus 40 dB/decade.
	return fs.LossDB(dc) + 40*math.Log10(d/dc)
}

func validatePathLoss(pl PathLoss) error {
	if pl == nil {
		return fmt.Errorf("radio: nil path-loss model")
	}
	return nil
}
