package radio

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
)

// Config parameterises a Channel. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// PathLossExponent is the log-distance exponent n of the path-loss
	// law (see the package doc).
	PathLossExponent float64
	// TxPowerDBm is the transmit power used by all stations.
	TxPowerDBm float64
	// NoiseFloorDBm is the thermal noise plus receiver noise figure.
	NoiseFloorDBm float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation; 0
	// disables shadowing.
	ShadowSigmaDB float64
	// ShadowTau is the shadowing decorrelation time constant.
	ShadowTau time.Duration
	// FadingK selects small-scale fading: negative disables fading, 0 is
	// Rayleigh, positive values are the Rician K-factor (linear).
	FadingK float64
	// ObstructionDB, when non-nil, returns extra attenuation in dB for a
	// link between two positions — used to model buildings blocking
	// non-line-of-sight street segments in the urban scenario.
	ObstructionDB func(a, b geom.Point) float64
	// Seed roots the channel's deterministic random streams.
	Seed int64
}

// DefaultConfig returns channel parameters calibrated for the paper's
// urban scenario: 2.4 GHz, street-canyon exponent, moderate correlated
// shadowing and Rician fading with a weak line-of-sight component.
func DefaultConfig() Config {
	return Config{
		PathLossExponent: 3.0,
		TxPowerDBm:       18,
		NoiseFloorDBm:    -94,
		ShadowSigmaDB:    5,
		ShadowTau:        800 * time.Millisecond,
		FadingK:          3,
		Seed:             1,
	}
}

// Channel computes per-frame reception conditions between stations. It is
// owned by the single-threaded simulation and must not be shared across
// goroutines.
type Channel struct {
	cfg     Config
	shadows *shadowField
	// fades are the per-directed-link frame-randomness streams used by
	// the medium's delivery path (see decision.go).
	fades fadeField
	edges map[edgeKey]FrameEdges
	// shadowClampDB and fadeClampDB are the resolved boost bounds (see
	// shadowClampSigma and maxFadeDB).
	shadowClampDB float64
	fadeClampDB   float64
	// noiseLin caches the noise floor in linear milliwatts; a frame
	// decision runs once per candidate receiver of every frame.
	// noiseOnlyDB caches 10*log10(noiseLin) — the interference-free SINR
	// denominator, which is the overwhelmingly common case — computed
	// once with the exact arithmetic of the interference path, so the
	// cached path is bit-identical to the uncached one.
	noiseLin    float64
	noiseOnlyDB float64
	// loss is the path-loss law at cfg.PathLossExponent.
	loss logDistance
}

// The boost bounds. They exist to bound the link budget, not to shape
// the distributions.
const (
	// shadowClampSigma bounds every shadowing sample to ±k·ShadowSigmaDB.
	// The clamp is what makes the shadowing boost provably finite — the
	// foundation of MaxRangeM's lossless culling guarantee — while being
	// statistically unobservable: a 6σ excursion has probability ~2e-9
	// per sample.
	shadowClampSigma = 6
	// maxFadeDB bounds the per-frame small-scale fading gain from above,
	// in dB: a +13 dB Rayleigh up-fade has probability ~2e-9 per frame,
	// and Rician tails are thinner still.
	maxFadeDB = 13
)

// NewChannel validates cfg and builds a channel.
func NewChannel(cfg Config) (*Channel, error) {
	if cfg.PathLossExponent <= 0 {
		return nil, fmt.Errorf("radio: non-positive path-loss exponent %v", cfg.PathLossExponent)
	}
	if cfg.ShadowSigmaDB < 0 {
		return nil, fmt.Errorf("radio: negative shadowing sigma %v", cfg.ShadowSigmaDB)
	}
	shadowClamp := shadowClampSigma * cfg.ShadowSigmaDB
	noiseLin := math.Pow(10, cfg.NoiseFloorDBm/10)
	shadows := newShadowField(cfg.ShadowSigmaDB, cfg.ShadowTau, cfg.Seed, shadowClamp)
	return &Channel{
		cfg:           cfg,
		shadows:       shadows,
		fades:         fadeField{seed: cfg.Seed, links: make(map[uint64]*FadeStream)},
		edges:         make(map[edgeKey]FrameEdges),
		shadowClampDB: shadowClamp,
		fadeClampDB:   maxFadeDB,
		noiseLin:      noiseLin,
		noiseOnlyDB:   10 * math.Log10(noiseLin),
		loss:          newLogDistance(cfg.PathLossExponent),
	}, nil
}

// MustChannel is NewChannel but panics on error, for static scenario
// setup.
func MustChannel(cfg Config) *Channel {
	c, err := NewChannel(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the channel's configuration.
func (c *Channel) Config() Config { return c.cfg }

// NoiseFloorDBm returns the configured noise floor.
func (c *Channel) NoiseFloorDBm() float64 { return c.cfg.NoiseFloorDBm }

// ShadowLink returns the handle to the unordered pair's shadowing
// process, for callers that sample the same link at high rates (the MAC
// caches these per station pair). Simulation-loop only.
func (c *Channel) ShadowLink(a, b packet.NodeID) *ShadowLink {
	return (*ShadowLink)(c.shadows.link(a, b))
}

// MeanRxPowerLinkDBm returns the large-scale received power (path loss +
// shadowing, no fading) for a frame from pa to pb over shadow link l at
// virtual time now. d must equal pa.Dist(pb). It is the one-receiver
// reference oracle for BatchMeanRxPower, which the medium calls; tests
// hold the batch to it bit for bit. The per-frame fading sample is drawn
// separately by ResolveFrame.
func (c *Channel) MeanRxPowerLinkDBm(l *ShadowLink, d float64, pa, pb geom.Point, now time.Duration) float64 {
	p := c.cfg.TxPowerDBm - c.loss.lossDB(d) + (*shadowProcess)(l).sample(now)
	if c.cfg.ObstructionDB != nil {
		p -= c.cfg.ObstructionDB(pa, pb)
	}
	return p
}

// CombineDBm returns the power sum of two dBm values.
func CombineDBm(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	return 10 * math.Log10(math.Pow(10, a/10)+math.Pow(10, b/10))
}

// FrameDecision holds the outcome of a frame reception computation,
// recorded in traces for analysis.
type FrameDecision struct {
	RxPowerDBm float64
	SINRdB     float64
	PER        float64
	Received   bool
}

// CertainLossFloorDBm returns the mean rx power (path loss + shadowing)
// below which a frame of the given modulation and size can NEVER be
// received, whatever the RNG does. The argument is exact, not statistical:
// a frame is received iff its coin Float64() >= PER, Float64() never exceeds
// 1 - 2^-53, the fading boost is bounded by the fade clamp, interference
// only lowers the SINR, and below the returned floor the PER computes to
// exactly 1.0 in float64. The radio medium uses it (together with
// MaxRangeM) to cull deliveries losslessly.
func (c *Channel) CertainLossFloorDBm(mod Modulation, bytes int) float64 {
	fade := c.fadeClampDB
	if c.cfg.FadingK < 0 {
		fade = 0 // fading disabled: no up-fade to allow for
	}
	return c.cfg.NoiseFloorDBm + certainLossSNRdB(mod, bytes) - fade
}

// certainLossSNRdB returns an SINR at or below which mod.PER(snr, bytes)
// evaluates to exactly 1.0 — i.e. loss is certain. Returns -Inf when no
// such SINR exists (tiny frames whose PER never saturates: with BER capped
// at 0.5, a frame under ~7 bytes always has a representable survival
// probability).
func certainLossSNRdB(mod Modulation, bytes int) float64 {
	const lo, hi = -300.0, 60.0
	if mod.PER(lo, bytes) < 1 {
		return math.Inf(-1)
	}
	// PER is monotone non-increasing in SNR; bisect the saturation edge,
	// then back off a quarter dB so that downstream floating-point
	// round-trips (floor = noise + snr - clamp and back) can never cross
	// it. Backing off only lowers the floor, i.e. widens the horizon —
	// the conservative direction.
	a, b := lo, hi
	for i := 0; i < 80; i++ {
		mid := a + (b-a)/2
		if mod.PER(mid, bytes) >= 1 {
			a = mid
		} else {
			b = mid
		}
	}
	return a - 0.25
}

// MaxRangeM returns a distance beyond which the mean rx power — even with
// the maximum possible shadowing boost — stays below floorDBm. Obstruction
// losses only reduce power further, so ignoring them is conservative.
// Returns +Inf when no finite distance guarantees it (the caller must then
// consider every receiver) and 0 when even the reference distance is below
// the floor. The bound is provable: the boost it budgets is the shadowing
// clamp.
func (c *Channel) MaxRangeM(floorDBm float64) float64 {
	if math.IsInf(floorDBm, -1) {
		return math.Inf(1)
	}
	budget := c.cfg.TxPowerDBm + c.shadowClampDB - floorDBm
	if c.loss.lossDB(1) > budget {
		return 0
	}
	const maxD = 1e8
	if c.loss.lossDB(maxD) <= budget {
		return math.Inf(1)
	}
	// The law is monotone non-decreasing; bisect and return the upper
	// bracket so the true threshold is never undercut.
	lo, hi := 1.0, maxD
	for i := 0; i < 200 && hi-lo > 1e-6; i++ {
		mid := lo + (hi-lo)/2
		if c.loss.lossDB(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
