package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/packet"
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
// 'i' a NodeID, 's' a seq delta, then the tail: 't' a frame type byte,
// 'r' a drop reason byte, 'b' any other raw byte, 'f' an 8-byte float.
// Bytes precede floats, so a byte's index in the tail is its offset.
var layouts = [categories]string{"viiisvt", "viiist", "viiistr", "vibb", "visi", "vi", "vvvvff"}

// refWalk skips through data by layouts alone — no records decoded —
// and returns the error DecodeBinary must give, or "" for input it must
// accept. A record fails at its first malformed varint, else at an id
// out of range, else at a seq delta out of range, else at a short tail,
// else at a frame type outside TypeData..TypeResponse, else at a drop
// reason outside DropChannel..DropHalfDuplex.
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
		varints := strings.TrimRight(layout, "trbf")
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
			for j, field := range layout[len(varints):] {
				if cause != "" {
					break
				}
				switch {
				case field == 't' && (rest[j] < byte(packet.TypeData) || rest[j] > byte(packet.TypeResponse)):
					cause = "unknown frame type"
				case field == 'r' && (rest[j] < byte(mac.DropChannel) || rest[j] > byte(mac.DropHalfDuplex)):
					cause = "unknown drop reason"
				}
			}
			if cause != "" {
				return fmt.Sprintf("trace: %s record %d: %s", kinds[k], rec, cause)
			}
			rest = rest[tail:]
		}
	}
	if cause := refWalkSent(&rest, uvarint); cause != "" {
		return cause
	}
	if len(rest) > 0 {
		return fmt.Sprintf("trace: %d trailing bytes after the last record block", len(rest))
	}
	return ""
}

// refWalkSent skips the sent block at the front of *rest, reading its
// varints with uvarint, and returns the error DecodeBinary must give for
// it, or "". A frame tally (Count Bytes | Type) fails at its first
// malformed varint, else at a missing type byte, else at a type outside
// TypeData..TypeResponse, else at a type not above the previous one,
// else at a zero tally. A flow (Flow Runs) fails at its first malformed
// varint, else at an id out of range, else at a Flow not above the
// previous one, else at zero runs, else at more runs than two bytes
// each leave room for. A run (Gap Len) fails at its first malformed
// varint, else at a Gap, Len or end past math.MaxUint32, else at a Gap
// under 2 after a flow's first run.
func refWalkSent(rest *[]byte, uvarint func() (uint64, string)) string {
	n, cause := uvarint()
	if cause != "" {
		return "trace: frame tally count: " + cause
	}
	if n > uint64(len(*rest)/3) {
		return fmt.Sprintf("trace: %d frame tally records need more than the %d bytes left", n, len(*rest))
	}
	var prevType byte
	for rec := 0; uint64(rec) < n; rec++ {
		count, cause := uvarint()
		var bytes uint64
		if cause == "" {
			bytes, cause = uvarint()
		}
		switch {
		case cause != "":
		case len(*rest) < 1:
			cause = "truncated"
		case (*rest)[0] < byte(packet.TypeData) || (*rest)[0] > byte(packet.TypeResponse):
			cause = "unknown frame type"
		case (*rest)[0] <= prevType:
			cause = "frame types out of order"
		case count == 0 && bytes == 0:
			cause = "empty frame tally"
		}
		if cause != "" {
			return fmt.Sprintf("trace: frame tally record %d: %s", rec, cause)
		}
		prevType = (*rest)[0]
		*rest = (*rest)[1:]
	}

	n, cause = uvarint()
	if cause != "" {
		return "trace: flow count: " + cause
	}
	if n > uint64(len(*rest)/4) {
		return fmt.Sprintf("trace: %d flow records need more than the %d bytes left", n, len(*rest))
	}
	var prevFlow uint16
	for rec := 0; uint64(rec) < n; rec++ {
		flow, cause := uvarint()
		var runs uint64
		if cause == "" {
			runs, cause = uvarint()
		}
		switch {
		case cause != "":
		case flow > math.MaxUint16:
			cause = "id overflow"
		case rec > 0 && uint16(flow-1) <= prevFlow:
			cause = "flows out of order"
		case runs == 0:
			cause = "flow without runs"
		case runs > uint64(len(*rest)/2):
			cause = "more runs than the bytes left hold"
		}
		var last uint64
		for r := uint64(0); cause == "" && r < runs; r++ {
			gap, c := uvarint()
			var length uint64
			if c == "" {
				length, c = uvarint()
			}
			switch {
			case c != "":
				cause = c
			case gap > math.MaxUint32 || length > math.MaxUint32 || last+gap+length > math.MaxUint32:
				cause = "run past the last seq"
			case r > 0 && gap < 2:
				cause = "runs overlap or adjoin"
			}
			last += gap + length
		}
		if cause != "" {
			return fmt.Sprintf("trace: flow record %d: %s", rec, cause)
		}
		prevFlow = uint16(flow - 1)
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
// non-minimal varint, id and seq-delta overflows, unknown frame types and
// drop reasons, a real cityscale traffic section, and sent blocks: one
// with several runs per flow, and ones with overlapping runs, adjacent
// runs, unsorted and duplicate flows, a frame type out of range, a
// repeated frame type, a zero tally, a flow without runs, a run past the
// last seq and flow and run counts past the input.
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
