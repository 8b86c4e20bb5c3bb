package trace

import (
	"bytes"
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

// FuzzDecodeBinary checks that DecodeBinary never panics, that it
// rejects exactly the inputs that are not a sequence of seven blocks
// whose counts fit the bytes left (an oversized count failing at its
// count check, before any allocation for it), and that the encoding is
// canonical: an accepted input re-encodes to the same bytes. The seed
// corpus (testdata/fuzz/FuzzDecodeBinary) holds every record kind, the
// empty collector, truncations, an oversized count, trailing bytes and
// a real cityscale traffic section.
func FuzzDecodeBinary(f *testing.F) {
	sizes := [categories]int{txSize, rxSize, dropSize, phaseSize, recoverySize, completeSize, vehicleSize}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference walk: counts only, no records.
		var wantErr string
		rest := data
		for _, size := range sizes {
			if len(rest) < countSize {
				wantErr = "count truncated"
				break
			}
			n := le.Uint64(rest)
			rest = rest[countSize:]
			if n > uint64(len(rest)/size) {
				wantErr = "need more than"
				break
			}
			rest = rest[int(n)*size:]
		}
		if wantErr == "" && len(rest) > 0 {
			wantErr = "trailing bytes"
		}

		c, err := DecodeBinary(data)
		if wantErr != "" {
			if err == nil || c != nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("DecodeBinary = (%v, %v), want an error naming %q", c, err, wantErr)
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
