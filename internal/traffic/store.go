package traffic

import (
	"bytes"
	"errors"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// StoreSchema is the traffic store's format version. Bump it when the
// file or wire format or the record semantics change: loads reject other
// schemas, so a stale store degrades to recomputation. (/2: exhaustive
// TraceKey keys, demand-driven vehicles; /3: the storeutil header.)
const StoreSchema = "traffic-trace-store/3"

// Store is the on-disk cache of recorded traffic streams, keyed like the
// scenario layer's in-memory cache (every parameter that shapes vehicle
// motion, never protocol settings): one process records a city's
// traffic once, and every later sweep arm in any process loads it.
type Store = storeutil.Store[*trace.Collector]

// traceCodec stores a stream as one section in the trace JSONL wire
// format, so loads replay byte-identically to the in-memory cache.
var traceCodec = &storeutil.Codec[*trace.Collector]{
	Name:      "traffic store",
	Kind:      "trace",
	Schema:    StoreSchema,
	Sections:  1,
	Metrics:   storeutil.NewMetrics("traffic store"),
	LoadFault: faultpoint.New("traffic.store.load"),
	SaveFault: faultpoint.New("traffic.store.save.write"),
	Encode: func(col *trace.Collector) ([][]byte, error) {
		buf := bytes.NewBuffer([]byte{}) // an empty stream is present, not absent
		err := col.WriteJSONL(buf)
		return [][]byte{buf.Bytes()}, err
	},
	Decode: func(sections [][]byte) (*trace.Collector, error) {
		if sections[0] == nil {
			return nil, errors.New("absent stream")
		}
		return trace.ReadJSONL(bytes.NewReader(sections[0]))
	},
}

// NewStore opens (creating if needed) a store at dir. maxBytes > 0 caps
// it: each Save evicts least recently used streams until it fits.
func NewStore(dir string, maxBytes int64) (*Store, error) {
	return storeutil.Open(dir, traceCodec, maxBytes)
}
