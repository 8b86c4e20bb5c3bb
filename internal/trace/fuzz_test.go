package trace

import (
	"bytes"
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
