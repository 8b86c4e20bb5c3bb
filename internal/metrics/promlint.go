package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LintPrometheus validates a Prometheus text-exposition stream (format
// 0.0.4): well-formed HELP/TYPE comments, valid metric and label names,
// parseable sample values, TYPE declared once and before the family's
// samples, and histogram series restricted to the _bucket/_sum/_count
// suffixes. It is the CI gate over sweepd's /api/metrics (cmd/benchjson
// -promlint) — deliberately a small subset of the upstream promlint,
// covering exactly the mistakes WritePrometheus could make.
//
// nonzero lists metric families that must additionally carry at least one
// sample with a positive value; a sweep that ran leaves its core counters
// nonzero, so an all-zero family means the wiring silently broke.
func LintPrometheus(r io.Reader, nonzero []string) error {
	types := make(map[string]string) // family -> TYPE
	helped := make(map[string]bool)  // family -> HELP seen
	sampled := make(map[string]bool) // family -> samples seen
	maxSample := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := lintComment(line, types, helped, sampled); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, value, err := lintSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		family := sampleFamily(name, types)
		if _, ok := types[family]; !ok {
			// An unknown family whose name extends a typed histogram is a
			// foreign series (only _bucket/_sum/_count belong), not just a
			// family that forgot its TYPE.
			for fam, t := range types {
				if (t == "histogram" || t == "summary") && strings.HasPrefix(name, fam+"_") {
					return fmt.Errorf("line %d: histogram %s has foreign series %s", lineNo, fam, name)
				}
			}
		}
		sampled[family] = true
		if value > maxSample[family] {
			maxSample[family] = value
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(sampled) == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	for family := range sampled {
		if _, ok := types[family]; !ok {
			return fmt.Errorf("family %s has samples but no # TYPE", family)
		}
		if !helped[family] {
			return fmt.Errorf("family %s has samples but no # HELP", family)
		}
	}
	for _, family := range nonzero {
		if !sampled[family] {
			return fmt.Errorf("required family %s has no samples", family)
		}
		if maxSample[family] <= 0 {
			return fmt.Errorf("required family %s is all-zero", family)
		}
	}
	return nil
}

func lintComment(line string, types map[string]string, helped, sampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	kind, family := fields[1], fields[2]
	switch kind {
	case "HELP":
		if !validName(family) {
			return fmt.Errorf("HELP for invalid metric name %q", family)
		}
		helped[family] = true
	case "TYPE":
		if !validName(family) {
			return fmt.Errorf("TYPE for invalid metric name %q", family)
		}
		if len(fields) != 4 {
			return fmt.Errorf("TYPE %s missing type", family)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE %s has unknown type %q", family, fields[3])
		}
		if _, dup := types[family]; dup {
			return fmt.Errorf("duplicate TYPE for %s", family)
		}
		if sampled[family] {
			return fmt.Errorf("TYPE for %s after its samples", family)
		}
		types[family] = fields[3]
	default:
		return fmt.Errorf("unknown comment kind %q", kind)
	}
	return nil
}

// lintSample parses one sample line — name[{labels}] value [timestamp] —
// and returns the series name and value.
func lintSample(line string) (string, float64, error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:end]
	if !validName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		closing, err := lintLabels(rest)
		if err != nil {
			return "", 0, fmt.Errorf("%s: %w", name, err)
		}
		rest = rest[closing+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("%s: expected value [timestamp], got %q", name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", 0, fmt.Errorf("%s: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", 0, fmt.Errorf("%s: bad timestamp %q", name, fields[1])
		}
	}
	return name, v, nil
}

// lintLabels validates a {k="v",...} block at the start of s and returns
// the index of the closing brace.
func lintLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i, nil
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("label without value in %q", s)
		}
		if name := s[start:i]; !validLabelName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		i++ // past opening quote
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i >= len(s) || s[i] != '}' {
			return 0, fmt.Errorf("unterminated label block in %q", s)
		}
	}
}

// sampleFamily maps a series name to its metric family: histogram series
// carry _bucket/_sum/_count suffixes over the family name.
func sampleFamily(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

func validLabelName(name string) bool {
	return !strings.ContainsRune(name, ':') && validName(name)
}
