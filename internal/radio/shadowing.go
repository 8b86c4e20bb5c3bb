package radio

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// linkKey identifies an unordered station pair; shadowing is modelled as a
// reciprocal channel property, so (a,b) and (b,a) share one process. The
// two NodeIDs pack into one uint64 — a 32-bit lane each — so the
// per-sample map lookup takes the runtime's fast integer-key path while
// staying injective even if packet.NodeID ever widens beyond 16 bits
// (the original 16-bit lanes would have silently collided; see the
// linkKeyLaneBits guard test).
type linkKey uint64

// linkKeyLaneBits is each NodeID's lane width inside a packed link key.
// It must be at least the bit width of packet.NodeID or distinct pairs
// alias — enforced by TestLinkKeyLanesFitNodeID.
const linkKeyLaneBits = 32

func makeLinkKey(a, b packet.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey(uint64(a)<<linkKeyLaneBits | uint64(b))
}

// lo and hi recover the ordered pair, for the per-link stream names.
func (k linkKey) lo() packet.NodeID { return packet.NodeID(k >> linkKeyLaneBits) }
func (k linkKey) hi() packet.NodeID {
	return packet.NodeID(k & (1<<linkKeyLaneBits - 1))
}

// appendNodeID appends id.String()'s bytes without going through fmt.
func appendNodeID(dst []byte, id packet.NodeID) []byte {
	if id == packet.Broadcast {
		return append(dst, "bcast"...)
	}
	dst = append(dst, 'n')
	return strconv.AppendUint(dst, uint64(id), 10)
}

// shadowProcess is a first-order autoregressive (Gauss-Markov) log-normal
// shadowing process. Samples taken close together in time are strongly
// correlated; the correlation decays as exp(-dt/tau). This produces the
// bursty loss patterns real vehicular links exhibit (a car behind a
// building stays behind it for a while), which matters for C-ARQ: bursts
// are what single-link ARQ cannot fix and cooperative diversity can.
type shadowProcess struct {
	sigmaDB float64
	tau     time.Duration
	// clampDB bounds the emitted sample's magnitude (the AR(1) state
	// itself evolves unclamped so the dynamics are unchanged); it is what
	// makes the maximum shadowing boost finite for Channel.MaxRangeM.
	clampDB float64
	rng     *rand.Rand
	// field backs the AR(1) coefficient memo shared by every process of
	// one shadow field (nil only in standalone tests that build a
	// process directly).
	field *shadowField

	last   time.Duration
	valDB  float64
	primed bool

	// Per-process AR(1) coefficient memo: a link whose endpoints beacon
	// periodically sees the same dt over and over even when no other
	// link shares it. Zero value (dt 0) never matches a real step.
	memoDt   time.Duration
	memoRho  float64
	memoComp float64
}

func newShadowProcess(sigmaDB float64, tau time.Duration, rng *rand.Rand, clampDB float64) *shadowProcess {
	return &shadowProcess{sigmaDB: sigmaDB, tau: tau, rng: rng, clampDB: clampDB}
}

// ShadowLink is an opaque handle to one unordered station pair's shadowing
// process, for hot paths that want to skip the field's per-sample map
// lookup. Obtain one with Channel.ShadowLink; it stays valid for the
// channel's lifetime and must only be used from the simulation loop.
type ShadowLink shadowProcess

// sample returns the shadowing value in dB at virtual time now, evolving
// the AR(1) state forward. Time must not go backwards; the process clamps
// negative steps to zero (re-sampling the same instant returns the same
// value).
func (p *shadowProcess) sample(now time.Duration) float64 {
	if p.sigmaDB == 0 {
		return 0
	}
	switch {
	case !p.primed:
		p.valDB = p.rng.NormFloat64() * p.sigmaDB
		p.last = now
		p.primed = true
	case now <= p.last:
		// Same instant (or earlier): hold the value.
	case p.tau <= 0:
		// No correlation: i.i.d. per sample.
		p.last = now
		p.valDB = p.rng.NormFloat64() * p.sigmaDB
	default:
		dt := now - p.last
		p.last = now
		rho, comp := p.arCoeffs(dt)
		p.valDB = rho*p.valDB + comp*p.sigmaDB*p.rng.NormFloat64()
	}
	v := p.valDB
	if v > p.clampDB {
		v = p.clampDB
	} else if v < -p.clampDB {
		v = -p.clampDB
	}
	return v
}

// arCoeffs returns the AR(1) step coefficients (rho, sqrt(1-rho²)) for a
// time gap dt, memoising the last gap seen across the whole field: the
// candidates of consecutive transmissions in one neighbourhood were
// typically all last sampled at the same earlier instant, so they share
// dt and the exp/sqrt pair computes once instead of per link. The memo is
// exact (keyed on the exact dt), so values are bit-identical to the
// unmemoised computation.
func (p *shadowProcess) arCoeffs(dt time.Duration) (rho, comp float64) {
	if dt == p.memoDt {
		return p.memoRho, p.memoComp
	}
	f := p.field
	if f != nil && f.memoOK && dt == f.memoDt && p.tau == f.memoTau {
		p.memoDt, p.memoRho, p.memoComp = dt, f.memoRho, f.memoComp
		return f.memoRho, f.memoComp
	}
	rho = math.Exp(-float64(dt) / float64(p.tau))
	comp = math.Sqrt(1 - rho*rho)
	p.memoDt, p.memoRho, p.memoComp = dt, rho, comp
	if f != nil {
		f.memoDt, f.memoTau, f.memoRho, f.memoComp, f.memoOK = dt, p.tau, rho, comp, true
	}
	return rho, comp
}

// shadowField manages per-link shadowing processes, lazily created with
// deterministic per-link RNG streams so results do not depend on the order
// links are first used.
type shadowField struct {
	sigmaDB float64
	tau     time.Duration
	seed    int64
	clampDB float64
	links   map[linkKey]*shadowProcess
	// zero is the shared no-op process handed out when sigma is zero.
	zero shadowProcess
	// slab and arena amortise per-pair process construction (see
	// fadeField: one allocation per link adds up at city scale).
	slab  []shadowProcess
	arena sim.StreamArena

	// AR(1) coefficient memo; see shadowProcess.arCoeffs.
	memoDt   time.Duration
	memoTau  time.Duration
	memoRho  float64
	memoComp float64
	memoOK   bool
}

func newShadowField(sigmaDB float64, tau time.Duration, seed int64, clampDB float64) *shadowField {
	return &shadowField{
		sigmaDB: sigmaDB,
		tau:     tau,
		seed:    seed,
		clampDB: clampDB,
		links:   make(map[linkKey]*shadowProcess),
	}
}

func (f *shadowField) sample(a, b packet.NodeID, now time.Duration) float64 {
	return f.link(a, b).sample(now)
}

// link returns the pair's process, creating it on first use. With sigma
// zero every pair shares the field's no-op process.
func (f *shadowField) link(a, b packet.NodeID) *shadowProcess {
	if f.sigmaDB == 0 {
		return &f.zero
	}
	key := makeLinkKey(a, b)
	p, ok := f.links[key]
	if !ok {
		// Identical bytes to "shadow-" + lo.String() + "-" + hi.String(),
		// assembled without fmt: links are created at city-scale rates.
		var buf [32]byte
		name := append(buf[:0], "shadow-"...)
		name = appendNodeID(name, key.lo())
		name = append(name, '-')
		name = appendNodeID(name, key.hi())
		if len(f.slab) == 0 {
			f.slab = make([]shadowProcess, 128)
		}
		p = &f.slab[0]
		f.slab = f.slab[1:]
		*p = shadowProcess{
			sigmaDB: f.sigmaDB,
			tau:     f.tau,
			rng:     f.arena.Stream(f.seed, name),
			clampDB: f.clampDB,
			field:   f,
		}
		f.links[key] = p
	}
	return p
}
