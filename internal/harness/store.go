package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ResultStoreSchema is the result store's format version. Bump it when
// the file or wire format, or scenario semantics no config field
// captures, change: loads reject other schemas, so a stale store
// degrades to recomputation. (/2: the sectioned header; /3:
// binary trace sections; /4: download meta without a config copy; /5:
// delta-varint trace sections; /6: protocol traces scoped to the tracked
// stations, without the city families' background beacons; /7: traffic
// summaries in the round meta; no traffic stream; /8: the study
// projection, analysis.StudyView: DATA receptions only, no drops, and an
// rx record without power, SINR or addressed destination; /9: the
// transmissions as their tally, trace.Sends, with no tx records.)
const ResultStoreSchema = "result-store/9"

// resultStoreSchemaPin is ResultStoreSchema and the SHA-256 of the codec
// sections of one stored round per scenario family (TestStoreSchemaPin).
// A change to what a round computes or stores that leaves
// ResultStoreSchema as it is fails that test; a bump updates both halves
// in the same change.
const resultStoreSchemaPin = "result-store/9 175c1a99a0a40362e29cf49d3f4a5f5d8e56b7925c3cafc94ef3098a7d7a63ba"

// UnitResult is the serialisable outcome of one work unit — the value
// the result store content-addresses. Protocol is the unit's protocol
// trace and Meta a small scenario-specific JSON payload (round duration,
// vehicle count, traffic summary, download summary). A loaded result
// reconstructs the unit's contribution byte-identically: every
// downstream report reads only what these sections carry. Traffic, a
// traffic stream, is the third section; no scenario writes it, since
// the round meta carries the stream's summary instead.
type UnitResult struct {
	Meta     json.RawMessage
	Protocol *trace.Collector
	Traffic  *trace.Collector
}

const (
	// resultSections is the body's section count: meta, protocol, traffic.
	resultSections = 3
	resultExt      = ".unit.jsonl"
	resultTemp     = ".unit-*.tmp"
	// quarantineSuffix is appended to the name of an entry that failed
	// validation; the moved file survives for post-mortems.
	quarantineSuffix = ".corrupt"
	// staleTempAge is the age past which NewResultStore sweeps a temp:
	// older than any live writer's, younger than a crashed sweep's by
	// its resume.
	staleTempAge = time.Hour
)

// The store's fault sites, keyed by the entry key: loadFault fires
// before each Load, saveFault is each Save's torn-write site.
var (
	loadFault = faultpoint.New("harness.store.load")
	saveFault = faultpoint.New("harness.store.save.write")
)

// Stat indices, in StoreStats field order.
const (
	hits = iota
	misses
	readBytes
	saves
	writtenBytes
	corrupt
	nStats
)

// storeCounters mirror StoreStats into the metrics registry. They are
// registered at init, so processes that never open a store still export
// the result_store_*_total family.
var storeCounters = func() (c [nStats]*metrics.Counter) {
	for i, s := range [nStats]struct{ suffix, help string }{
		{"hits", "loads that served a stored entry"},
		{"misses", "loads that found no usable entry"},
		{"read_bytes", "bytes read, header lines included"},
		{"saves", "entries written"},
		{"written_bytes", "bytes written, header lines included"},
		{"corrupt", "files that failed validation and were quarantined"},
	} {
		c[i] = metrics.NewCounter("result_store_"+s.suffix+"_total", "result store "+s.help)
	}
	return c
}()

// StoreStats is a copy of a store's counters since NewResultStore.
// Every Load is exactly one hit or one miss.
type StoreStats struct {
	Hits, Misses        uint64
	ReadBytes           uint64 // serving hits and rejecting bad files
	Saves, WrittenBytes uint64
	Corrupt             uint64 // files quarantined
}

// StoreSummary describes a store directory for the results API.
type StoreSummary struct {
	Schema  string `json:"schema"`
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Corrupt int    `json:"corrupt,omitempty"` // quarantined files on disk
}

type header struct {
	Schema   string  `json:"schema"`
	Key      string  `json:"key"`
	Sections []int64 `json:"sections"`
	BodyCRC  uint32  `json:"body_crc"` // CRC-32 (IEEE) of all sections
}

// ResultStore is the content-addressed store of unit results, keyed by
// root seed, unit identity and config/code digests. It makes sweeps
// resumable (re-runs compute only units whose key changed) and
// shardable (processes share one directory); it is safe for concurrent
// use within and across processes.
//
// An entry <fnv64a(key)>.unit.jsonl is a JSON header line {schema, key,
// section lengths (-1 = absent), body CRC-32} and the concatenated meta,
// protocol and traffic sections, collectors in the trace binary encoding
// (the .jsonl name promises only the header line): the embedded key
// makes name collisions harmless, lengths and CRC catch truncation and
// corruption. Saves rename a temp .unit-*.tmp into place, so entries are
// never partial and concurrent writers race benignly. A Load that fails
// validation quarantines the file to <name>.corrupt so the caller's
// recompute-and-Save heals it; NewResultStore sweeps the temps crashed
// writers left. Nothing evicts an entry. Stats are always-on atomics,
// mirrored live into the metrics registry while metrics are enabled.
type ResultStore struct {
	dir   string
	stats [nStats]atomic.Uint64
}

// NewResultStore opens (creating if needed) a store at dir.
func NewResultStore(dir string) (*ResultStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("result store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	s := &ResultStore{dir: dir}
	s.cleanStaleTemps(staleTempAge)
	return s, nil
}

func (s *ResultStore) add(stat int, n uint64) {
	s.stats[stat].Add(n)
	if metrics.Enabled() {
		storeCounters[stat].Add(n)
	}
}

// Stats returns the store's counters.
func (s *ResultStore) Stats() StoreStats {
	v := func(stat int) uint64 { return s.stats[stat].Load() }
	return StoreStats{v(hits), v(misses), v(readBytes), v(saves), v(writtenBytes), v(corrupt)}
}

// path returns the file key is stored under.
func (s *ResultStore) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", h.Sum64(), resultExt))
}

// Load returns the result stored under key: nil and a nil error when
// absent, an error when present but unusable (injected fault, foreign
// schema, key collision, truncation, corruption). Callers treat both as
// a miss and recompute; the Save heals the entry.
func (s *ResultStore) Load(key string) (*UnitResult, error) {
	outcome := misses
	defer func() { s.add(outcome, 1) }()
	if err := loadFault.FireKey(key); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	s.add(readBytes, uint64(len(data)))
	var res *UnitResult
	sections, err := s.split(key, data)
	if err == nil {
		res, err = s.decode(sections)
	}
	if err != nil {
		s.add(corrupt, 1)
		err = fmt.Errorf("result store %s: %w", path, err)
		if s.quarantine(path) == nil {
			err = fmt.Errorf("%w (quarantined to %s)", err, filepath.Base(path)+quarantineSuffix)
		}
		return nil, err
	}
	outcome = hits
	return res, nil
}

// split validates an entry against key and returns its sections (nil
// where absent), capped so a decoder cannot write into its neighbour.
func (s *ResultStore) split(key string, data []byte) ([][]byte, error) {
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	var hdr header
	switch err := json.Unmarshal(line, &hdr); {
	case !ok:
		return nil, fmt.Errorf("truncated header")
	case err != nil:
		return nil, fmt.Errorf("header: %w", err)
	case hdr.Schema != ResultStoreSchema:
		return nil, fmt.Errorf("schema %q, want %q", hdr.Schema, ResultStoreSchema)
	case hdr.Key != key:
		return nil, fmt.Errorf("key mismatch (stored %q)", hdr.Key)
	case len(hdr.Sections) != resultSections:
		return nil, fmt.Errorf("%d sections, want %d", len(hdr.Sections), resultSections)
	}
	// Bound every length before summing: crafted lengths near MaxInt64
	// could otherwise overflow the sum into agreement with the body.
	var want int64
	for _, n := range hdr.Sections {
		if n < -1 || n > int64(len(body)) {
			return nil, fmt.Errorf("section length %d outside [-1, %d] (truncated?)", n, len(body))
		}
		want += max(n, 0)
	}
	if int64(len(body)) != want {
		return nil, fmt.Errorf("body %d bytes, header says %d (truncated?)", len(body), want)
	}
	if crc := crc32.ChecksumIEEE(body); crc != hdr.BodyCRC {
		return nil, fmt.Errorf("body CRC %08x, header says %08x (corrupt)", crc, hdr.BodyCRC)
	}
	sections := make([][]byte, len(hdr.Sections))
	for i, n := range hdr.Sections {
		if n >= 0 {
			sections[i], body = body[:n:n], body[n:]
		}
	}
	return sections, nil
}

// encode returns res's meta, protocol and traffic sections, each nil
// (absent) when nil; an empty collector's encoding is present, never
// nil, so loads replay byte-identically. It reads no store state.
func (*ResultStore) encode(res *UnitResult) [][]byte {
	sections := [][]byte{res.Meta, nil, nil}
	if res.Protocol != nil {
		sections[1] = res.Protocol.AppendBinary(nil)
	}
	if res.Traffic != nil {
		sections[2] = res.Traffic.AppendBinary(nil)
	}
	return sections
}

// decode rebuilds the result split validated; an error quarantines the
// entry.
func (s *ResultStore) decode(sections [][]byte) (res *UnitResult, err error) {
	res = &UnitResult{Meta: sections[0]}
	if sections[1] != nil {
		if res.Protocol, err = trace.DecodeBinary(sections[1]); err != nil {
			return nil, fmt.Errorf("protocol: %w", err)
		}
	}
	if sections[2] != nil {
		if res.Traffic, err = trace.DecodeBinary(sections[2]); err != nil {
			return nil, fmt.Errorf("traffic: %w", err)
		}
	}
	return res, nil
}

// Save writes res under key atomically.
func (s *ResultStore) Save(key string, res *UnitResult) error {
	sections := s.encode(res)
	hdr := header{Schema: ResultStoreSchema, Key: key, Sections: make([]int64, len(sections))}
	for i, sec := range sections {
		hdr.Sections[i] = -1
		if sec != nil {
			hdr.Sections[i] = int64(len(sec))
			hdr.BodyCRC = crc32.Update(hdr.BodyCRC, crc32.IEEETable, sec)
		}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	parts := append([][]byte{append(line, '\n')}, sections...)
	tmp, err := os.CreateTemp(s.dir, resultTemp)
	if err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	// Torn-write injection: write only the armed prefix and abort the way
	// a crashed process would, leaving the temp and publishing nothing.
	limit, torn := saveFault.ShortWrite(key)
	if !torn {
		limit = math.MaxInt
	}
	written := 0
	for _, p := range parts {
		if err == nil {
			var n int
			n, err = tmp.Write(p[:min(len(p), max(limit-written, 0))])
			written += n
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if torn {
		return fmt.Errorf("result store: faultpoint short write (%d bytes) on %s: %v", written, tmp.Name(), err)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("result store: writing %s: %w", tmp.Name(), err)
	}
	s.add(saves, 1)
	s.add(writtenBytes, uint64(written))
	return nil
}

// Summary scans the store directory.
func (s *ResultStore) Summary() StoreSummary {
	sum := StoreSummary{Schema: ResultStoreSchema, Dir: s.dir}
	ents, _ := os.ReadDir(s.dir)
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasSuffix(name, resultExt+quarantineSuffix):
			sum.Corrupt++
		case strings.HasSuffix(name, resultExt):
			if info, err := e.Info(); err == nil {
				sum.Entries++
				sum.Bytes += info.Size()
			}
		}
	}
	return sum
}

// quarantine moves path aside to path+quarantineSuffix, replacing any
// earlier quarantined copy (at most one post-mortem file per entry).
func (*ResultStore) quarantine(path string) error {
	return os.Rename(path, path+quarantineSuffix)
}

// cleanStaleTemps removes the store's temps older than olderThan and
// returns how many it removed. Best effort throughout.
func (s *ResultStore) cleanStaleTemps(olderThan time.Duration) int {
	ents, _ := os.ReadDir(s.dir)
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if match, _ := filepath.Match(resultTemp, name); match {
			if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) && os.Remove(filepath.Join(s.dir, name)) == nil {
				removed++
			}
		}
	}
	return removed
}
