package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// DemandFlow is one origin–destination pair of a demand table: vehicles
// appear on the Origin link (at its upstream end) following a Poisson
// process of mean rate RateVehPerHour, drive the shortest free-flow route
// to the Dest link, and leave traffic at Dest's downstream end. Demand
// tables replace the uniform random-turn background populations with
// realistic density gradients: rush corridors load up while side streets
// only see crossing traffic.
type DemandFlow struct {
	// Origin is the entry link; injected vehicles start at arc 0.
	Origin LinkID
	// Dest is the exit link; vehicles leave traffic at its downstream
	// end (VehicleSpec.ExitAtEnd).
	Dest LinkID
	// RateVehPerHour is the flow's mean injection rate. Arrivals are a
	// Poisson process: exponential inter-arrival gaps drawn from the
	// flow's own deterministic stream.
	RateVehPerHour float64
}

// linkTravelTime is the static shortest-path weight: the free-flow
// traversal time of the whole link.
func linkTravelTime(l *Link) float64 { return l.Length() / l.SpeedLimitMPS }

// shortestRoute returns the link sequence (inclusive of both endpoints)
// minimising total free-flow travel time from one link to another, or
// false when no path exists. Weights are static — congestion does not
// re-route — so a vehicle's route can be fixed in its spec at injection
// time, which is what keeps demand-driven worlds replayable byte for
// byte. Ties break deterministically towards lower link IDs. Loop links
// (ring roads) never appear on a route except as the origin itself.
func shortestRoute(net *Network, from, to LinkID) ([]LinkID, bool) {
	n := len(net.Links)
	if from < 0 || int(from) >= n || to < 0 || int(to) >= n {
		return nil, false
	}
	const unseen = math.MaxFloat64
	dist := make([]float64, n)
	prev := make([]LinkID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = unseen
		prev[i] = -1
	}
	dist[from] = linkTravelTime(net.Links[from])
	for {
		// Linear scan-min Dijkstra: networks are at most a few thousand
		// links and routes are computed once per flow, not per vehicle.
		// The ascending scan makes equal-distance ties resolve to the
		// lowest link ID.
		best := -1
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < unseen && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		if LinkID(best) == to {
			break
		}
		done[best] = true
		for _, nx := range net.Links[best].Next {
			if nx == LinkID(best) {
				continue // a loop link's self-successor is not progress
			}
			if alt := dist[best] + linkTravelTime(net.Links[nx]); alt < dist[nx] {
				dist[nx] = alt
				prev[nx] = LinkID(best)
			}
		}
	}
	var route []LinkID
	for at := to; ; at = prev[at] {
		route = append(route, at)
		if at == from {
			break
		}
		if prev[at] < 0 {
			return nil, false
		}
	}
	for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
		route[i], route[j] = route[j], route[i]
	}
	return route, true
}

// ExpandDemand realises an OD demand table as vehicle specs over the
// horizon: each flow draws exponential inter-arrival gaps from its own
// stream (derived from seed and the flow index alone), so the expansion
// is a pure function of (net, flows, horizon, seed, driver) and two runs
// of the same demand produce identical populations — the property the
// record-once-replay-many workflow and the trace cache key both rest on.
//
// Every injected vehicle enters at its arrival instant (VehicleSpec.
// EnterAt; until then it sits parked at the origin), drives the flow's
// shortest route and exits at the destination link's end. The driver
// callback, when non-nil, personalises each vehicle's parameters from
// the flow's stream (pass a jitter function); nil uses DefaultDriver.
// Specs are ordered flow by flow, chronologically within a flow.
func ExpandDemand(net *Network, flows []DemandFlow, horizon time.Duration, seed int64,
	driver func(rng *rand.Rand) DriverParams) ([]VehicleSpec, error) {

	if net == nil {
		return nil, fmt.Errorf("traffic: demand without network")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("traffic: demand horizon %v", horizon)
	}
	if driver == nil {
		driver = func(*rand.Rand) DriverParams { return DefaultDriver() }
	}
	var specs []VehicleSpec
	for i, f := range flows {
		if f.RateVehPerHour <= 0 {
			return nil, fmt.Errorf("traffic: flow %d rate %v veh/h", i, f.RateVehPerHour)
		}
		route, ok := shortestRoute(net, f.Origin, f.Dest)
		if !ok {
			return nil, fmt.Errorf("traffic: flow %d: no route from link %d to %d", i, f.Origin, f.Dest)
		}
		origin := net.link(f.Origin)
		rng := sim.Stream(seed, fmt.Sprintf("demand-flow-%d", i))
		ratePerSec := f.RateVehPerHour / 3600
		// Fixed per-vehicle draw order (gap, driver, lane) keeps the
		// expansion bit-reproducible.
		var t time.Duration
		for {
			t += time.Duration(float64(time.Second) * rng.ExpFloat64() / ratePerSec)
			if t >= horizon {
				break
			}
			drv := driver(rng)
			entrySpeed := 0.5 * math.Min(drv.DesiredSpeedMPS, origin.SpeedLimitMPS)
			specs = append(specs, VehicleSpec{
				Driver:    drv,
				Link:      f.Origin,
				Lane:      rng.Intn(origin.Lanes),
				ArcM:      0,
				SpeedMPS:  entrySpeed,
				Route:     route,
				ExitAtEnd: true,
				EnterAt:   t,
			})
		}
	}
	return specs, nil
}
