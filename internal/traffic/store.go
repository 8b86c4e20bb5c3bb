package traffic

import (
	"errors"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// StoreSchema is the traffic store's format version. Bump it when the
// file or wire format or the record semantics change: loads reject other
// schemas, so a stale store degrades to recomputation. (/2: exhaustive
// TraceKey keys, demand-driven vehicles; /3: the storeutil header; /4:
// the binary trace section; /5: the delta-varint trace section.)
const StoreSchema = "traffic-trace-store/5"

// Store is the on-disk cache of recorded traffic streams, keyed like the
// scenario layer's in-memory cache (every parameter that shapes vehicle
// motion, never protocol settings): one process records a city's
// traffic once, and every later sweep arm in any process loads it.
type Store = storeutil.Store[*trace.Collector]

// traceCodec stores a stream as one section in the trace binary
// encoding, so loads replay byte-identically to the in-memory cache.
var traceCodec = &storeutil.Codec[*trace.Collector]{
	Name:      "traffic store",
	Kind:      "trace",
	Schema:    StoreSchema,
	Sections:  1,
	Metrics:   storeutil.NewMetrics("traffic store"),
	LoadFault: faultpoint.New("traffic.store.load"),
	SaveFault: faultpoint.New("traffic.store.save.write"),
	Encode: func(col *trace.Collector) ([][]byte, error) {
		return [][]byte{col.AppendBinary(nil)}, nil
	},
	Decode: func(sections [][]byte) (*trace.Collector, error) {
		if sections[0] == nil {
			return nil, errors.New("absent stream")
		}
		return trace.DecodeBinary(sections[0])
	},
}

// NewStore opens (creating if needed) a store at dir.
func NewStore(dir string) (*Store, error) {
	return storeutil.Open(dir, traceCodec)
}
