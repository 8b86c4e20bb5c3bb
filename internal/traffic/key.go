package traffic

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"
)

// traceKeySchema versions the cache-key serialisation AND the stepping
// semantics behind it. Bump it whenever Step's behaviour changes in a
// way no config field captures (a new integration rule, a controller
// logic change): every previously stored world then misses and is
// recomputed instead of replaying stale dynamics.
const traceKeySchema = "traffic-world/3"

// TraceKey returns the canonical cache key of the traffic world defined
// by (cfg, specs, horizon) — exactly the inputs the determinism contract
// says a recorded stream is a pure function of. It serialises every
// field of the config except the Recorder sink (which receives output
// and shapes nothing), a structural digest of the network (geometry,
// lanes, speed limits, topology, signal timing including actuated
// parameters), and every field of every vehicle spec, then hashes the
// serialisation. Any input that could change recorded trajectories
// therefore changes the key, so precomputed-trace stores can never serve
// a stale world after the config grows a field — the reflection-based
// regression test perturbs each field to keep this function honest.
func TraceKey(cfg Config, specs []VehicleSpec, horizon time.Duration) string {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("%s\n", traceKeySchema)
	// Every Config field except Network (below, structurally) and
	// Recorder (an output sink).
	w("cfg|tick=%d|rec=%d|seed=%d|nolc=%t|bsafe=%g|lch=%d|stop=%g\n",
		int64(cfg.Tick), cfg.RecordEvery, cfg.Seed, cfg.DisableLaneChanges,
		cfg.SafeDecelMPS2, int64(cfg.LaneChangeHoldoff), cfg.StopMarginM)
	w("horizon=%d\n", int64(horizon))
	if net := cfg.Network; net != nil {
		writeNetworkDigest(h, net)
	}
	for i := range specs {
		writeSpecDigest(h, i, &specs[i])
	}
	return fmt.Sprintf("%s|veh=%d|dur=%s|%x", traceKeySchema, len(specs), horizon, h.Sum(nil))
}

func writeNetworkDigest(h io.Writer, net *Network) {
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	for _, l := range net.Links {
		w("link|%d|lanes=%d|w=%g|v=%g|sig=%d|next=%v|pts=",
			l.ID, l.Lanes, l.LaneWidthM, l.SpeedLimitMPS, l.Signal, l.Next)
		for _, p := range l.Centre.Points() {
			w("%g,%g;", p.X, p.Y)
		}
		w("\n")
	}
	for _, sg := range net.Signals {
		w("signal|%d|off=%d|", sg.ID, int64(sg.Offset))
		for _, ph := range sg.Phases {
			w("ph=%d:%v|", int64(ph.Dur), ph.Green)
		}
		if a := sg.Actuated; a != nil {
			w("act|min=%d|max=%d|allred=%d|det=%g",
				int64(a.MinGreen), int64(a.MaxGreen), int64(a.AllRed), a.DetectorM)
		}
		w("\n")
	}
}

func writeSpecDigest(h io.Writer, i int, s *VehicleSpec) {
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	d := s.Driver
	w("veh|%d|drv=%g,%g,%g,%g,%g,%g,%g,%g|link=%d|lane=%d|arc=%g|v=%g|route=%v|enter=%d|exit=%t|caps=",
		i,
		d.DesiredSpeedMPS, d.TimeHeadwayS, d.MinGapM, d.MaxAccelMPS2,
		d.ComfortDecelMPS2, d.LengthM, d.Politeness, d.ChangeThresholdMPS2,
		s.Link, s.Lane, s.ArcM, s.SpeedMPS, s.Route, int64(s.EnterAt), s.ExitAtEnd)
	for _, c := range s.Caps {
		w("%d-%d@%g;", int64(c.From), int64(c.To), c.MaxMPS)
	}
	w("\n")
}
