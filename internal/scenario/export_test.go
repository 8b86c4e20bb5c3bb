package scenario

import "repro/internal/trace"

// Test-size configs and the stream-returning round, exported to the
// external scenario_test package.
var (
	QuickTrafficGrid = quickTrafficGrid
	QuickStopGo      = quickStopGo
	QuickCityScale   = quickCityScale
	QuickCityDemand  = quickCityDemand
)

// RoundStream runs one round of a normalized traffic family config,
// returning the round and the traffic stream it replays.
func RoundStream[C trafficFamily[C]](cfg C, round int) (Round, *trace.Collector, error) {
	return cfg.round(round)
}
