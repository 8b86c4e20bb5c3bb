package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// Store fault-injection sites, fired with the unit key: load-time error
// injection and save-time torn writes, for the recovery tests and the
// crash suite. Disarmed cost: one atomic load each.
var (
	fpResultLoad = faultpoint.New("harness.store.load")
	fpResultSave = faultpoint.New("harness.store.save.write")
)

// staleTempAge is how old an abandoned atomic-write temp file must be
// before opening a store sweeps it: old enough that no live writer's
// temp is ever touched, young enough that a crashed sweep's litter is
// gone by the resume.
const staleTempAge = time.Hour

// ResultStoreSchema is the on-disk format version of the unit-result
// store. Bump it whenever the result wire format or the simulation
// semantics behind any scenario change in a way no config field
// captures: readers reject files written under any other schema, so a
// stale store degrades to recomputation instead of serving wrong
// results.
const ResultStoreSchema = "result-store/1"

// UnitResult is the serialisable outcome of one work unit — the value
// the result store content-addresses. Protocol is the unit's protocol
// trace, Traffic the per-round traffic stream for scenarios that expose
// one, and Meta a small scenario-specific JSON payload (round duration,
// vehicle count, download summary). A loaded result reconstructs the
// unit's contribution byte-identically: every downstream report reads
// only what these three sections carry.
type UnitResult struct {
	Meta     json.RawMessage
	Protocol *trace.Collector
	Traffic  *trace.Collector
}

// resultHeader is the first line of every store file. The full unit key
// is embedded so file-name hash collisions can never alias two units,
// and the section lengths + CRC make truncation and corruption
// detectable without trusting the JSON parser to notice. A length of -1
// marks an absent section (nil collector), distinct from an empty one.
type resultHeader struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// MetaLen, ProtoLen and TrafficLen are the byte lengths of the three
	// body sections, concatenated in that order after the header line.
	MetaLen    int64 `json:"meta_len"`
	ProtoLen   int64 `json:"proto_len"`
	TrafficLen int64 `json:"traffic_len"`
	// BodyCRC is the CRC-32 (IEEE) of the whole concatenated body.
	BodyCRC uint32 `json:"body_crc"`
}

// ResultStore is an on-disk, content-addressed store of experiment unit
// results, keyed by root seed + unit identity (experiment, scenario,
// parameter point, round) + config/code digests. It is what turns a
// sweep from a batch job into a resumable service: re-running computes
// only units whose key changed, an interrupted sweep continues where it
// stopped, and N processes shard one sweep by pointing at a shared
// directory.
//
// Files are written atomically (temp file + rename), so concurrent
// writers of the same key race benignly: the unit is a pure function of
// its key, and one of the identical byte streams wins.
type ResultStore struct {
	dir string
	// Always-on operation counters (atomics: workers share the store).
	// They back the end-of-sweep resume summary, which must report even
	// when the metrics registry is disabled; the registry mirrors them
	// only at snapshot time.
	hits, misses         atomic.Uint64
	readBytes, writeSize atomic.Uint64
	saves, corrupt       atomic.Uint64
}

// ResultStoreStats is a point-in-time copy of a store's operation
// counters since the store was opened.
type ResultStoreStats struct {
	Hits         uint64 // loads that served a stored unit
	Misses       uint64 // loads that found no usable entry
	ReadBytes    uint64 // bytes read serving hits (and rejecting bad files)
	Saves        uint64 // units written
	WrittenBytes uint64 // bytes written, header line included
	Corrupt      uint64 // files that failed validation and were quarantined
}

// Stats returns the store's operation counters.
func (s *ResultStore) Stats() ResultStoreStats {
	return ResultStoreStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		ReadBytes:    s.readBytes.Load(),
		Saves:        s.saves.Load(),
		WrittenBytes: s.writeSize.Load(),
		Corrupt:      s.corrupt.Load(),
	}
}

// NewResultStore opens (creating if needed) a store rooted at dir.
func NewResultStore(dir string) (*ResultStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("harness: empty result store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: result store: %w", err)
	}
	// A crashed writer leaves its atomic-write temp behind; sweep any old
	// enough that no live writer can own them.
	storeutil.CleanStaleTemps(dir, ".unit-", ".tmp", staleTempAge)
	return &ResultStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *ResultStore) Dir() string { return s.dir }

// Path returns the file a key stores under. The name is a 64-bit FNV-1a
// hash of the key; collisions are harmless because Load verifies the
// embedded key.
func (s *ResultStore) Path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%016x.unit.jsonl", h.Sum64()))
}

// Load returns the result stored under key, or (nil, nil) when the key
// is absent. A present-but-unusable file (wrong schema, key collision,
// truncation, corruption) returns an error; callers treat that as a
// miss and recompute, overwriting the bad file.
func (s *ResultStore) Load(key string) (*UnitResult, error) {
	res, err := s.load(key)
	if res != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return res, err
}

// quarantine handles a file that failed validation: it is counted,
// moved aside to <name>.corrupt — freeing the path so the caller's
// recompute-and-Save heals the entry with one atomic rename — and the
// validation error is annotated with where the bad bytes went.
func (s *ResultStore) quarantine(path string, err error) error {
	s.corrupt.Add(1)
	if qerr := storeutil.Quarantine(path); qerr != nil {
		return err
	}
	return fmt.Errorf("%w (quarantined to %s)", err, filepath.Base(path)+storeutil.QuarantineSuffix)
}

func (s *ResultStore) load(key string) (*UnitResult, error) {
	if err := fpResultLoad.FireKey(key); err != nil {
		return nil, fmt.Errorf("harness: result store: %w", err)
	}
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("harness: result store: %w", err)
	}
	s.readBytes.Add(uint64(len(data)))
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: truncated header", path))
	}
	var hdr resultHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: header: %w", path, err))
	}
	if hdr.Schema != ResultStoreSchema {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: schema %q, want %q", path, hdr.Schema, ResultStoreSchema))
	}
	if hdr.Key != key {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: key mismatch (stored %q)", path, hdr.Key))
	}
	body := data[nl+1:]
	// Bound every section before summing: three crafted lengths near
	// MaxInt64 would otherwise overflow the sum into agreement with the
	// body size and slice out of range below.
	for _, n := range []int64{hdr.MetaLen, hdr.ProtoLen, hdr.TrafficLen} {
		if n < -1 || n > int64(len(body)) {
			return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: section length %d outside [-1, %d]",
				path, n, len(body)))
		}
	}
	want := sectionLen(hdr.MetaLen) + sectionLen(hdr.ProtoLen) + sectionLen(hdr.TrafficLen)
	if int64(len(body)) != want {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: body %d bytes, header says %d (truncated?)",
			path, len(body), want))
	}
	if crc := crc32.ChecksumIEEE(body); crc != hdr.BodyCRC {
		return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: body CRC %08x, header says %08x (corrupt)",
			path, crc, hdr.BodyCRC))
	}
	res := &UnitResult{}
	rest := body
	if hdr.MetaLen >= 0 {
		res.Meta = json.RawMessage(rest[:hdr.MetaLen])
		rest = rest[hdr.MetaLen:]
	}
	if hdr.ProtoLen >= 0 {
		col, err := trace.ReadJSONL(bytes.NewReader(rest[:hdr.ProtoLen]))
		if err != nil {
			return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: protocol: %w", path, err))
		}
		res.Protocol = col
		rest = rest[hdr.ProtoLen:]
	}
	if hdr.TrafficLen >= 0 {
		col, err := trace.ReadJSONL(bytes.NewReader(rest))
		if err != nil {
			return nil, s.quarantine(path, fmt.Errorf("harness: result store %s: traffic: %w", path, err))
		}
		res.Traffic = col
	}
	return res, nil
}

func sectionLen(n int64) int64 {
	if n < 0 {
		return 0
	}
	return n
}

// Save writes the result under key atomically. Collector sections use
// the exact trace JSONL wire format, so a loaded result replays
// byte-identically into every downstream report.
func (s *ResultStore) Save(key string, res *UnitResult) error {
	var body bytes.Buffer
	hdr := resultHeader{Schema: ResultStoreSchema, Key: key, MetaLen: -1, ProtoLen: -1, TrafficLen: -1}
	if res.Meta != nil {
		body.Write(res.Meta)
		hdr.MetaLen = int64(len(res.Meta))
	}
	if res.Protocol != nil {
		start := body.Len()
		if err := res.Protocol.WriteJSONL(&body); err != nil {
			return fmt.Errorf("harness: result store: protocol: %w", err)
		}
		hdr.ProtoLen = int64(body.Len() - start)
	}
	if res.Traffic != nil {
		start := body.Len()
		if err := res.Traffic.WriteJSONL(&body); err != nil {
			return fmt.Errorf("harness: result store: traffic: %w", err)
		}
		hdr.TrafficLen = int64(body.Len() - start)
	}
	hdr.BodyCRC = crc32.ChecksumIEEE(body.Bytes())
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("harness: result store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".unit-*.tmp")
	if err != nil {
		return fmt.Errorf("harness: result store: %w", err)
	}
	keepTmp := false
	defer func() {
		if !keepTmp {
			os.Remove(tmp.Name()) // no-op after a successful rename
		}
	}()
	// Torn-write injection: write only the armed byte prefix and abort
	// the way a crashed process would — temp left behind, no rename, so
	// the store's published entry is never a partial file.
	if n, ok := fpResultSave.ShortWrite(key); ok {
		payload := append(append(append([]byte{}, hdrLine...), '\n'), body.Bytes()...)
		if n > len(payload) {
			n = len(payload)
		}
		_, werr := tmp.Write(payload[:n])
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		keepTmp = true
		return fmt.Errorf("harness: result store: faultpoint short write (%d of %d bytes) on %s: %v",
			n, len(payload), tmp.Name(), werr)
	}
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(hdrLine); err == nil {
		if err = w.WriteByte('\n'); err == nil {
			_, err = w.Write(body.Bytes())
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("harness: result store: writing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("harness: result store: %w", err)
	}
	s.saves.Add(1)
	s.writeSize.Add(uint64(len(hdrLine)) + 1 + uint64(body.Len()))
	return nil
}

// StoreSummary describes a store directory for the results API.
type StoreSummary struct {
	Schema  string `json:"schema"`
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	// Corrupt counts quarantined (.corrupt) post-mortem files still on
	// disk — entries that failed validation and were moved aside.
	Corrupt int `json:"corrupt,omitempty"`
}

// Summary scans the store directory and reports entry count and total
// size. Best effort: unreadable entries are skipped.
func (s *ResultStore) Summary() StoreSummary {
	sum := StoreSummary{Schema: ResultStoreSchema, Dir: s.dir}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return sum
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".unit.jsonl"+storeutil.QuarantineSuffix) {
			sum.Corrupt++
			continue
		}
		if !strings.HasSuffix(e.Name(), ".unit.jsonl") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		sum.Entries++
		sum.Bytes += info.Size()
	}
	return sum
}
