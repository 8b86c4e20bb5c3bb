package sim

import (
	"math/rand"
)

// splitmix64 is a tiny O(1)-seed rand.Source64. The simulator creates
// streams at high rates on hot paths (one per radio link's shadowing
// process, several per scenario round), and math/rand's default source
// pays a 607-word initialisation per seed — measurably the single
// largest cost of city-scale runs before this replaced it. Splitmix64
// passes BigCrush, has a full 2^64 period, and seeds in one addition.
type splitmix64 struct {
	state uint64
}

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// Stream derives an independent, deterministic random stream from a root
// seed and a stream name. Every stochastic component in the simulator owns
// its own named stream, so adding a new component (or reordering draws in
// one) never perturbs the randomness seen by the others — scenarios stay
// comparable across code changes and runs are bit-reproducible.
func Stream(rootSeed int64, name string) *rand.Rand {
	return rand.New(&splitmix64{state: streamState(rootSeed, name)})
}

// streamState is FNV-1a over the root seed's little-endian bytes followed
// by the name's bytes — inlined (identical digests to hash/fnv) so stream
// construction does not allocate a hasher or copy the name.
func streamState[S string | []byte](rootSeed int64, name S) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	s := uint64(rootSeed)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(s >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// StreamArena constructs the same generators as Stream while amortising
// allocation: sources come from chunked slabs and names are hashed as raw
// bytes, so one new stream costs one generator allocation instead of
// four. A stream drawn from an arena is value-for-value identical to
// Stream(rootSeed, string(name)). Owners that create streams at
// city-scale rates (one per radio link) hold one arena each; the zero
// value is ready to use. Not safe for concurrent use.
type StreamArena struct {
	srcs []splitmix64
}

// Stream returns the deterministic stream for (rootSeed, name), backed by
// an arena-owned source.
func (a *StreamArena) Stream(rootSeed int64, name []byte) *rand.Rand {
	if len(a.srcs) == 0 {
		a.srcs = make([]splitmix64, 256)
	}
	src := &a.srcs[0]
	a.srcs = a.srcs[1:]
	src.state = streamState(rootSeed, name)
	return rand.New(src)
}

// ArmSeed forks a round's seed by sweep-arm name. Parameter sweeps derive
// each arm's channel and protocol randomness from ArmSeed(roundSeed, arm),
// so arms stop sharing one fading/shadowing realization while the
// expensive world state (mobility, traffic) stays keyed by the unforked
// round seed and remains shared across arms. The empty arm returns the
// seed unchanged, which keeps single-arm runs and the equivalence-test
// byte streams exactly as they were.
func ArmSeed(seed int64, arm string) int64 {
	if arm == "" {
		return seed
	}
	return SeedFor(seed, "arm|"+arm)
}

// SeedFor derives a deterministic child seed from a root seed and a name:
// the first draw of the named stream. Scenario rounds and harness work
// units use it so that a unit's randomness depends only on its identity,
// never on execution order.
func SeedFor(rootSeed int64, name string) int64 {
	return Stream(rootSeed, name).Int63()
}
