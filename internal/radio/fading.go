package radio

import (
	"math"
	"math/rand"
)

// fadingGainDB samples an instantaneous small-scale fading power gain in
// dB. K is the Rician K-factor (ratio of line-of-sight to scattered
// power); K = 0 degenerates to Rayleigh fading. Each frame sees an
// independent sample, modelling fast fading whose coherence time at
// vehicular speeds is shorter than the inter-frame spacing.
func fadingGainDB(rng *rand.Rand, k float64) float64 {
	var gain float64
	if k <= 0 {
		// Rayleigh: power gain is exponential with unit mean.
		gain = rayleighPowerGain(rng)
	} else {
		gain = ricianPowerGain(rng, k)
	}
	// Clamp to avoid -Inf dB for pathological draws.
	if gain < 1e-9 {
		gain = 1e-9
	}
	return 10 * math.Log10(gain)
}

func rayleighPowerGain(rng *rand.Rand) float64 {
	return rng.ExpFloat64()
}

func ricianPowerGain(rng *rand.Rand, k float64) float64 {
	// Complex gaussian with LOS component: h = sqrt(K/(K+1)) +
	// CN(0, 1/(K+1)); power gain |h|^2 has unit mean.
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	los := math.Sqrt(k / (k + 1))
	re := los + sigma*rng.NormFloat64()
	im := sigma * rng.NormFloat64()
	return re*re + im*im
}
