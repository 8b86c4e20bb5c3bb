// Package storeutil is the repository's one content-addressed blob
// store; the unit-result and traffic stores are Stores over typed Codecs.
// An entry <fnv64a(key)>.<kind>.jsonl is a JSON header line {schema,
// key, section lengths (-1 = absent), body CRC-32} and the concatenated
// sections: the embedded key makes name collisions harmless, lengths and
// CRC catch truncation and corruption. Saves rename a temp into place,
// so entries are never partial and concurrent writers race benignly. A
// Load that fails validation quarantines the file to <name>.corrupt so
// the caller's recompute-and-Save heals it; Open sweeps temps crashed
// writers left. An optional byte budget evicts least recently used
// files. Stats are always-on atomics, mirrored live into the metrics
// registry while metrics are enabled.
package storeutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

// QuarantineSuffix is appended to the name of a file that failed
// validation; the moved file survives for post-mortems.
const QuarantineSuffix = ".corrupt"

// staleTempAge is the age past which Open sweeps a temp: older than any
// live writer's, younger than a crashed sweep's by its resume.
const staleTempAge = time.Hour

// Codec types one family of entries. Codecs are package-level values of
// the packages that own the entry type.
type Codec[T any] struct {
	Name     string // in errors and metric help, e.g. "result store"
	Kind     string // files are <hash>.<Kind>.jsonl, temps .<Kind>-*.tmp
	Schema   string // loads reject entries written under any other
	Sections int    // body sections per entry
	Metrics  *Metrics
	// LoadFault fires before each Load, SaveFault is each Save's
	// torn-write site; both keyed by the entry key.
	LoadFault, SaveFault *faultpoint.Point
	Encode               func(T) ([][]byte, error) // Sections sections, nil = absent
	Decode               func([][]byte) (T, error) // an error quarantines the entry
}

// Stat indices, in Stats field order.
const (
	hits = iota
	misses
	readBytes
	saves
	writtenBytes
	evictions
	corrupt
	nStats
)

var statMetrics = [nStats]struct{ suffix, help string }{
	{"hits", "loads that served a stored entry"},
	{"misses", "loads that found no usable entry"},
	{"read_bytes", "bytes read, header lines included"},
	{"saves", "entries written"},
	{"written_bytes", "bytes written, header lines included"},
	{"evictions", "entries evicted by the byte budget"},
	{"corrupt", "files that failed validation and were quarantined"},
}

// Metrics mirrors Stats into the registry. Resolve it in a package-level
// var, so processes that never open the store still export the family.
type Metrics [nStats]*metrics.Counter

// NewMetrics registers the counters of the store called name: "result
// store" exports result_store_hits_total and so on.
func NewMetrics(name string) *Metrics {
	var m Metrics
	prefix := strings.ReplaceAll(name, " ", "_")
	for i, s := range statMetrics {
		m[i] = metrics.NewCounter(prefix+"_"+s.suffix+"_total", name+" "+s.help)
	}
	return &m
}

// Stats is a copy of a store's counters since Open. Every Load is
// exactly one hit or one miss.
type Stats struct {
	Hits, Misses        uint64
	ReadBytes           uint64 // serving hits and rejecting bad files
	Saves, WrittenBytes uint64
	Evictions           uint64 // files removed by the byte budget
	Corrupt             uint64 // files quarantined
}

type header struct {
	Schema   string  `json:"schema"`
	Key      string  `json:"key"`
	Sections []int64 `json:"sections"`
	BodyCRC  uint32  `json:"body_crc"` // CRC-32 (IEEE) of all sections
}

// Store is an on-disk, content-addressed store of T values, safe for
// concurrent use within and across processes.
type Store[T any] struct {
	dir      string
	codec    *Codec[T]
	maxBytes int64
	evictMu  sync.Mutex // one eviction scan at a time
	stats    [nStats]atomic.Uint64
}

// Open opens (creating if needed) the store of codec's entries at dir.
// maxBytes > 0 installs the LRU byte budget; 0 leaves it unbounded.
func Open[T any](dir string, codec *Codec[T], maxBytes int64) (*Store[T], error) {
	if dir == "" {
		return nil, fmt.Errorf("%s: empty directory", codec.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", codec.Name, err)
	}
	cleanStaleTemps(dir, "."+codec.Kind+"-", ".tmp", staleTempAge)
	return &Store[T]{dir: dir, codec: codec, maxBytes: maxBytes}, nil
}

func (s *Store[T]) add(stat int, n uint64) {
	s.stats[stat].Add(n)
	if metrics.Enabled() {
		s.codec.Metrics[stat].Add(n)
	}
}

// Stats returns the store's counters.
func (s *Store[T]) Stats() Stats {
	v := func(stat int) uint64 { return s.stats[stat].Load() }
	return Stats{v(hits), v(misses), v(readBytes), v(saves), v(writtenBytes), v(evictions), v(corrupt)}
}

// Dir returns the store's root directory.
func (s *Store[T]) Dir() string { return s.dir }

// Path returns the file key stores under.
func (s *Store[T]) Path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", h.Sum64(), s.ext()))
}

func (s *Store[T]) ext() string { return "." + s.codec.Kind + ".jsonl" }

// Load returns the value stored under key: the zero T and a nil error
// when absent, an error when present but unusable (injected fault,
// foreign schema, key collision, truncation, corruption). Callers treat
// both as a miss and recompute; the Save heals the entry.
func (s *Store[T]) Load(key string) (v T, err error) {
	outcome := misses
	defer func() { s.add(outcome, 1) }()
	if err := s.codec.LoadFault.FireKey(key); err != nil {
		return v, fmt.Errorf("%s: %w", s.codec.Name, err)
	}
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return v, nil
	} else if err != nil {
		return v, fmt.Errorf("%s: %w", s.codec.Name, err)
	}
	s.add(readBytes, uint64(len(data)))
	sections, err := s.split(key, data)
	if err == nil {
		v, err = s.codec.Decode(sections)
	}
	if err != nil {
		s.add(corrupt, 1)
		err = fmt.Errorf("%s %s: %w", s.codec.Name, path, err)
		if quarantine(path) == nil {
			err = fmt.Errorf("%w (quarantined to %s)", err, filepath.Base(path)+QuarantineSuffix)
		}
		return *new(T), err
	}
	if s.maxBytes > 0 {
		// Refresh recency so eviction spares the entries a sweep is
		// reading. Best effort: a read-only store still serves.
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	outcome = hits
	return v, nil
}

// split validates an entry against key and returns its sections (nil
// where absent), capped so a decoder cannot write into its neighbour.
func (s *Store[T]) split(key string, data []byte) ([][]byte, error) {
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	var hdr header
	switch err := json.Unmarshal(line, &hdr); {
	case !ok:
		return nil, fmt.Errorf("truncated header")
	case err != nil:
		return nil, fmt.Errorf("header: %w", err)
	case hdr.Schema != s.codec.Schema:
		return nil, fmt.Errorf("schema %q, want %q", hdr.Schema, s.codec.Schema)
	case hdr.Key != key:
		return nil, fmt.Errorf("key mismatch (stored %q)", hdr.Key)
	case len(hdr.Sections) != s.codec.Sections:
		return nil, fmt.Errorf("%d sections, want %d", len(hdr.Sections), s.codec.Sections)
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

// Save writes v under key atomically, then enforces the byte budget.
func (s *Store[T]) Save(key string, v T) error {
	sections, err := s.codec.Encode(v)
	if err != nil {
		return fmt.Errorf("%s: %w", s.codec.Name, err)
	}
	hdr := header{Schema: s.codec.Schema, Key: key, Sections: make([]int64, len(sections))}
	for i, sec := range sections {
		hdr.Sections[i] = -1
		if sec != nil {
			hdr.Sections[i] = int64(len(sec))
			hdr.BodyCRC = crc32.Update(hdr.BodyCRC, crc32.IEEETable, sec)
		}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("%s: %w", s.codec.Name, err)
	}
	parts := append([][]byte{append(line, '\n')}, sections...)
	tmp, err := os.CreateTemp(s.dir, "."+s.codec.Kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("%s: %w", s.codec.Name, err)
	}
	// Torn-write injection: write only the armed prefix and abort the way
	// a crashed process would, leaving the temp and publishing nothing.
	limit, torn := s.codec.SaveFault.ShortWrite(key)
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
		return fmt.Errorf("%s: faultpoint short write (%d bytes) on %s: %v", s.codec.Name, written, tmp.Name(), err)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.Path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: writing %s: %w", s.codec.Name, tmp.Name(), err)
	}
	s.add(saves, 1)
	s.add(writtenBytes, uint64(written))
	s.evict(s.Path(key))
	return nil
}

// scan stats the store's entries and quarantined files.
func (s *Store[T]) scan() []os.FileInfo {
	ents, _ := os.ReadDir(s.dir)
	var files []os.FileInfo
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, s.ext()) || strings.HasSuffix(name, s.ext()+QuarantineSuffix) {
			if info, err := e.Info(); err == nil {
				files = append(files, info)
			}
		}
	}
	return files
}

// evict removes the least recently used files until the store fits its
// budget. Quarantined files count and go too, so corruption never pushes
// the store past its cap; keep, the entry just written, always stays.
// Best effort: a failed delete leaves the store bigger, never fails.
func (s *Store[T]) evict(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	files := s.scan()
	var total int64
	for _, f := range files {
		total += f.Size()
	}
	// Oldest first; equal mtimes break by name so the order is stable.
	sort.Slice(files, func(i, j int) bool {
		if ti, tj := files[i].ModTime(), files[j].ModTime(); !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return files[i].Name() < files[j].Name()
	})
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		if f.Name() != filepath.Base(keep) && os.Remove(filepath.Join(s.dir, f.Name())) == nil {
			total -= f.Size()
			s.add(evictions, 1)
		}
	}
}

// Summary describes a store directory for the results API.
type Summary struct {
	Schema  string `json:"schema"`
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Corrupt int    `json:"corrupt,omitempty"` // quarantined files on disk
}

// Summary scans the store directory.
func (s *Store[T]) Summary() Summary {
	sum := Summary{Schema: s.codec.Schema, Dir: s.dir}
	for _, f := range s.scan() {
		if strings.HasSuffix(f.Name(), QuarantineSuffix) {
			sum.Corrupt++
		} else {
			sum.Entries++
			sum.Bytes += f.Size()
		}
	}
	return sum
}

// quarantine moves path aside to path+QuarantineSuffix, replacing any
// earlier quarantined copy (at most one post-mortem file per entry).
func quarantine(path string) error {
	return os.Rename(path, path+QuarantineSuffix)
}

// cleanStaleTemps removes the files prefix*suffix in dir older than
// olderThan and returns how many it removed. Best effort throughout.
func cleanStaleTemps(dir, prefix, suffix string, olderThan time.Duration) int {
	ents, _ := os.ReadDir(dir)
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) && os.Remove(filepath.Join(dir, name)) == nil {
				removed++
			}
		}
	}
	return removed
}
