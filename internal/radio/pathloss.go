// Package radio models wireless propagation: deterministic path loss,
// time-correlated log-normal shadowing, small-scale fading, and
// SNR-to-packet-error-rate curves for 802.11-style modulations. Together
// these reproduce the qualitative link behaviour of the paper's urban
// testbed: loss grows with distance, coverage edges are gradual and bursty,
// and distinct platoon positions see partially decorrelated loss — the
// diversity Cooperative ARQ exploits.
//
// Path loss follows one law, log-distance at the 2.4 GHz carrier of the
// paper's 802.11b testbed:
//
//	PL(d) = PL0 + 10·n·log10(d / 1 m),   d clamped to at least 1 m,
//
// where PL0 ≈ 40.05 dB is the Friis free-space loss at the 1 m reference
// distance and the exponent n (Config.PathLossExponent) is the one value
// each scenario calibrates: 3.0 on the open highway, 3.2 on the arterial
// corridor, 3.8 in the urban street canyon and 4.2 in the deep-urban city.
package radio

import "math"

// The law's fixed terms.
const (
	// carrierHz is the carrier frequency: 802.11b channel spacing puts
	// every channel within 2.4-2.5 GHz.
	carrierHz = 2.4e9
	// refDistM is the reference distance d0, in metres. Shorter links
	// are clamped to it: the law is not meant for the near field.
	refDistM = 1.0
)

// logDistance is the path-loss law with its constants precomputed. The
// channel evaluates it once per candidate receiver of every frame.
type logDistance struct {
	pl0 float64 // free-space loss at refDistM, dB
	n10 float64 // 10·n: dB per decade beyond refDistM
}

func newLogDistance(exponent float64) logDistance {
	// Friis at refDistM: 20·log10(4π·d0·f/c), whose log10(d0) term is 0.
	return logDistance{pl0: 20*math.Log10(carrierHz) - 147.55, n10: 10 * exponent}
}

// lossDB returns the attenuation in dB at distance d metres. It is
// monotone non-decreasing in d, which MaxRangeM's bisection relies on.
func (l logDistance) lossDB(d float64) float64 {
	if d < refDistM {
		d = refDistM
	}
	// log10(d/d0) is log10(d) exactly at d0 = 1 m.
	return l.pl0 + l.n10*math.Log10(d)
}
