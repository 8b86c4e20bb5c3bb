package traffic

import (
	"time"

	"repro/internal/storeutil"
)

// TraceKey returns the key of the traffic world defined by (cfg, specs,
// horizon), exactly the inputs the determinism contract says a recorded
// world is a pure function of: the storeutil.Digest of every field of the
// config, of the network it points to (geometry, topology, signal
// timing, actuated parameters) and of every vehicle spec.
func TraceKey(cfg Config, specs []VehicleSpec, horizon time.Duration) string {
	return storeutil.Digest(struct {
		Config
		Specs   []VehicleSpec
		Horizon time.Duration
	}{cfg, specs, horizon})
}
