package traffic

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// StoreSchema is the traffic store's one version constant, and the
// first part of every TraceKey. Bump it when the file or wire format,
// the record semantics or the stepping semantics change (a new
// integration rule, a controller logic change, one of sim.go's constants
// such as the tick): loads reject other schemas and every key changes,
// so a stale store degrades to recomputation. (/2: exhaustive TraceKey
// keys, demand-driven vehicles; /3: the storeutil header; /4: the binary
// trace section; /5: the delta-varint trace section; /6: keys are
// storeutil.Digest of the inputs, and this constant also versions the
// stepping semantics, which the retired traffic-world/4 key prefix did.)
const StoreSchema = "traffic-trace-store/6"

// storeSchemaPin is StoreSchema and the SHA-256 of the store bytes of
// four short reference worlds, one per network kind (TestStoreSchemaPin).
// A change to how worlds step or encode that leaves StoreSchema as it is
// fails that test; a bump updates both halves in the same change.
const storeSchemaPin = "traffic-trace-store/6 d5a1c44c707c0d793ff66722acd58b223a574a5568d6f1b0c7db232f6a3ab6e9"

// Store is the on-disk cache of recorded traffic worlds, keyed like the
// scenario layer's in-memory cache (every parameter that shapes vehicle
// motion, never protocol settings): one process records a city's
// traffic once, and every later sweep arm in any process loads it. A
// loaded world is unbound (see World.Bind).
type Store = storeutil.Store[*World]

// worldCodec stores a world as one section: its serialized form (Trace)
// in the trace binary encoding.
var worldCodec = &storeutil.Codec[*World]{
	Name:      "traffic store",
	Kind:      "trace",
	Schema:    StoreSchema,
	Sections:  1,
	Metrics:   storeutil.NewMetrics("traffic store"),
	LoadFault: faultpoint.New("traffic.store.load"),
	SaveFault: faultpoint.New("traffic.store.save.write"),
	Encode: func(w *World) ([][]byte, error) {
		return [][]byte{w.Trace().AppendBinary(nil)}, nil
	},
	Decode: func(sections [][]byte) (*World, error) {
		if sections[0] == nil {
			return nil, errors.New("absent stream")
		}
		col, err := trace.DecodeBinary(sections[0])
		if err != nil {
			return nil, err
		}
		return WorldFromTrace(col)
	},
}

// NewStore opens (creating if needed) a store at dir.
func NewStore(dir string) (*Store, error) {
	return storeutil.Open(dir, worldCodec)
}

// Trace returns the world's serialized form: one trace.VehicleRecord
// per sample, time-major (at each instant, the vehicles sampled then in
// ID order), which is the order the simulation recorded them in. It
// rebuilds that order by merging the tracks instant by instant.
func (w *World) Trace() *trace.Collector {
	recs := make([]trace.VehicleRecord, 0, w.sum.n)
	next := make([]int, len(w.tracks)) // each track's next sample
	live := make([]int, 0, len(w.tracks))
	var at time.Duration = math.MaxInt64
	for i, tr := range w.tracks {
		live = append(live, i)
		at = min(at, tr.samples[0].at)
	}
	for len(live) > 0 {
		now, kept := at, live[:0]
		at = math.MaxInt64
		for _, i := range live {
			tr := &w.tracks[i]
			if s := tr.samples[next[i]]; s.at == now {
				recs = append(recs, trace.VehicleRecord{
					At: s.at, Veh: tr.veh, Link: int(s.link), Lane: int(s.lane), Arc: s.arc, Speed: s.v,
				})
				next[i]++
			}
			if next[i] < len(tr.samples) {
				kept = append(kept, i)
				at = min(at, tr.samples[next[i]].at)
			}
		}
		live = kept
	}
	return &trace.Collector{Vehicles: recs}
}

// WorldFromTrace rebuilds an unbound world (see World.Bind) from its
// serialized form, the inverse of Trace. The stream must hold vehicle
// records only, in strict time-major order ((at, vehicle) ascending),
// with non-negative vehicle, link and lane numbers: the form Trace
// writes. The summary sums the samples in that order, as the recording
// did.
func WorldFromTrace(col *trace.Collector) (*World, error) {
	if n := col.Counts(); n != (trace.Counts{Vehicles: n.Vehicles}) {
		return nil, fmt.Errorf("traffic: stream holds protocol records: %+v", n)
	}
	recs := col.Vehicles
	if len(recs) == 0 {
		return nil, errors.New("traffic: stream has no vehicle records")
	}
	w := &World{}
	index := make(map[int]int)
	for i, r := range recs {
		if r.Veh < 0 || r.Link < 0 || r.Link > math.MaxInt32 || r.Lane < 0 || r.Lane > math.MaxInt32 {
			return nil, fmt.Errorf("traffic: record %d: vehicle %d, link %d or lane %d out of range", i, r.Veh, r.Link, r.Lane)
		}
		if i > 0 {
			if p := recs[i-1]; r.At < p.At || (r.At == p.At && r.Veh <= p.Veh) {
				return nil, fmt.Errorf("traffic: record %d: vehicle %d at %v out of time-major order", i, r.Veh, r.At)
			}
		}
		k, ok := index[r.Veh]
		if !ok {
			k = len(w.tracks)
			index[r.Veh] = k
			w.tracks = append(w.tracks, track{veh: r.Veh})
		}
		w.tracks[k].samples = append(w.tracks[k].samples, sample{
			at: r.At, link: int32(r.Link), lane: int32(r.Lane), arc: r.Arc, v: r.Speed,
		})
		w.sum.add(r.Speed)
	}
	// Tracks stand in first-appearance order, which is ID order for a
	// recording (it samples every vehicle at t=0) but not in general.
	slices.SortFunc(w.tracks, func(a, b track) int { return cmp.Compare(a.veh, b.veh) })
	return w, nil
}
