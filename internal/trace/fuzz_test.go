package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzReadJSONL checks that ReadJSONL never panics on arbitrary bytes and
// that whatever it accepts re-encodes to a canonical fixpoint: writing the
// parsed collector and parsing that again yields the identical byte
// stream. The seed corpus (testdata/fuzz/FuzzReadJSONL) holds a real
// WriteJSONL stream with every record kind, truncations and malformed
// lines.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatalf("ReadJSONL returned both a collector and %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := c.WriteJSONL(&first); err != nil {
			t.Fatalf("accepted stream does not re-encode: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream does not parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("codec not canonical:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// layouts spells each category's record fields in encoding order, the
// fuzz oracle's independent model of the format: 'v' a zigzag varint,
// 'i' a NodeID, 's' a seq delta, then the tail: 'b' a raw byte, 'f' an
// 8-byte float.
var layouts = [categories]string{"viiisvb", "viiiisbff", "viiisbb", "vibb", "visi", "vi", "vvvvff"}

// refWalk skips through data by layouts alone — no records decoded —
// and returns the error DecodeBinary must give, or "" for input it must
// accept. A record fails at its first malformed varint, else at an id
// out of range, else at a seq delta out of range, else at a short tail.
func refWalk(data []byte) string {
	kinds := [categories]string{"tx", "rx", "drop", "phase", "recovery", "completion", "vehicle"}
	rest := data
	uvarint := func() (uint64, string) {
		u, n := binary.Uvarint(rest)
		switch {
		case n == 0:
			return 0, "truncated"
		case n < 0:
			return 0, "varint overflow"
		case n > 1 && rest[n-1] == 0:
			return 0, "non-minimal varint"
		}
		rest = rest[n:]
		return u, ""
	}
	for k, layout := range layouts {
		n, cause := uvarint()
		if cause != "" {
			return fmt.Sprintf("trace: %s count: %s", kinds[k], cause)
		}
		varints := strings.TrimRight(layout, "bf")
		tail := len(layout) - len(varints) + 7*strings.Count(layout, "f")
		if minSize := len(varints) + tail; n > uint64(len(rest)/minSize) {
			return fmt.Sprintf("trace: %d %s records need more than the %d bytes left", n, kinds[k], len(rest))
		}
		for rec := 0; uint64(rec) < n; rec++ {
			var ids, seqs uint64
			for _, field := range varints {
				u, cause := uvarint()
				if cause != "" {
					return fmt.Sprintf("trace: %s record %d: %s", kinds[k], rec, cause)
				}
				switch field {
				case 'i':
					ids = max(ids, u)
				case 's':
					seqs = u
				}
			}
			switch {
			case ids > math.MaxUint16:
				cause = "id overflow"
			case seqs > math.MaxUint32:
				cause = "seq delta overflow"
			case len(rest) < tail:
				cause = "truncated"
			}
			if cause != "" {
				return fmt.Sprintf("trace: %s record %d: %s", kinds[k], rec, cause)
			}
			rest = rest[tail:]
		}
	}
	if len(rest) > 0 {
		return fmt.Sprintf("trace: %d trailing bytes after the last record block", len(rest))
	}
	return ""
}

// FuzzDecodeBinary checks that DecodeBinary never panics, that it
// rejects exactly the inputs the layout walk refWalk rejects, with
// the same error (an oversized count failing at its count check, before
// any allocation for it), and that the encoding is canonical: an
// accepted input re-encodes to the same bytes. The seed corpus
// (testdata/fuzz/FuzzDecodeBinary) holds every record kind, the empty
// collector, truncations, an oversized count, trailing bytes, a
// non-minimal varint, id and seq-delta overflows and a real cityscale
// traffic section.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		wantErr := refWalk(data)
		c, err := DecodeBinary(data)
		if wantErr != "" {
			if err == nil || c != nil || err.Error() != wantErr {
				t.Fatalf("DecodeBinary = (%v, %v), want the error %q", c, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed input rejected: %v", err)
		}
		if again := c.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("encoding not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}
