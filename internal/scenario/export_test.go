package scenario

import (
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Test-size configs, the world-returning round and the reference
// summary, exported to the external scenario_test package.
var (
	QuickTrafficGrid = quickTrafficGrid
	QuickStopGo      = quickStopGo
	QuickCityScale   = quickCityScale
	QuickCityDemand  = quickCityDemand
)

// RoundWorld runs one round of a normalized traffic family config,
// returning the round and the traffic world it replays.
func RoundWorld[C trafficFamily[C]](cfg C, round int) (Round, *traffic.World, error) {
	return cfg.round(round, &trace.Collector{})
}

// TraceSummary summarises a serialized traffic world in record order.
func TraceSummary(col *trace.Collector) TrafficSummary {
	return TrafficSummary(traceSummary(col))
}
