package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// ResultStoreSchema is the result store's format version. Bump it when
// the file or wire format, or scenario semantics no config field
// captures, change: loads reject other schemas, so a stale store
// degrades to recomputation. (/2: the shared storeutil header; /3:
// binary trace sections; /4: download meta without a config copy; /5:
// delta-varint trace sections; /6: protocol traces scoped to the tracked
// stations, without the city families' background beacons; /7: traffic
// summaries in the round meta; no traffic stream; /8: the study
// projection, analysis.StudyView: DATA receptions only, no drops, and an
// rx record without power, SINR or addressed destination.)
const ResultStoreSchema = "result-store/8"

// resultStoreSchemaPin is ResultStoreSchema and the SHA-256 of the codec
// sections of one stored round per scenario family (TestStoreSchemaPin).
// A change to what a round computes or stores that leaves
// ResultStoreSchema as it is fails that test; a bump updates both halves
// in the same change.
const resultStoreSchemaPin = "result-store/8 0aa09a5787ae2a7717b1faccaa761c04ecf3c37e0dfb505e620928f6ccfd8758"

// UnitResult is the serialisable outcome of one work unit — the value
// the result store content-addresses. Protocol is the unit's protocol
// trace and Meta a small scenario-specific JSON payload (round duration,
// vehicle count, traffic summary, download summary). A loaded result
// reconstructs the unit's contribution byte-identically: every
// downstream report reads only what these sections carry. Traffic, a
// traffic stream, is the codec's third section; no scenario writes it,
// since the round meta carries the stream's summary instead.
type UnitResult struct {
	Meta     json.RawMessage
	Protocol *trace.Collector
	Traffic  *trace.Collector
}

// ResultStore is the content-addressed store of unit results, keyed by
// root seed, unit identity and config/code digests. It makes sweeps
// resumable (re-runs compute only units whose key changed) and
// shardable (processes share one directory).
type ResultStore = storeutil.Store[*UnitResult]

// resultCodec stores a UnitResult as its meta, protocol and traffic
// sections, each absent when nil, collectors in the trace binary
// encoding, so loads replay byte-identically.
var resultCodec = &storeutil.Codec[*UnitResult]{
	Name:      "result store",
	Kind:      "unit",
	Schema:    ResultStoreSchema,
	Sections:  3,
	Metrics:   storeutil.NewMetrics("result store"),
	LoadFault: faultpoint.New("harness.store.load"),
	SaveFault: faultpoint.New("harness.store.save.write"),
	Encode: func(res *UnitResult) ([][]byte, error) {
		return [][]byte{res.Meta, encodeCollector(res.Protocol), encodeCollector(res.Traffic)}, nil
	},
	Decode: func(sections [][]byte) (res *UnitResult, err error) {
		res = &UnitResult{Meta: sections[0]}
		if res.Protocol, err = decodeCollector(sections[1]); err != nil {
			return nil, fmt.Errorf("protocol: %w", err)
		}
		if res.Traffic, err = decodeCollector(sections[2]); err != nil {
			return nil, fmt.Errorf("traffic: %w", err)
		}
		return res, nil
	},
}

// NewResultStore opens (creating if needed) a store at dir.
func NewResultStore(dir string) (*ResultStore, error) {
	return storeutil.Open(dir, resultCodec)
}

// encodeCollector encodes col as a section, nil (absent) for a nil
// collector; an empty collector's encoding is present, never nil.
func encodeCollector(col *trace.Collector) []byte {
	if col == nil {
		return nil
	}
	return col.AppendBinary(nil)
}

func decodeCollector(section []byte) (*trace.Collector, error) {
	if section == nil {
		return nil, nil
	}
	return trace.DecodeBinary(section)
}
