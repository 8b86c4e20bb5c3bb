package storeutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"slices"
)

// Digest returns the hex SHA-256 of a canonical serialisation of v, the
// content half of both stores' keys. It walks v by reflection: every
// field of every nested struct (exported or not), every element and
// every map entry feeds the hash, so a value growing a field, or any
// field changing, changes the digest and its entry misses instead of
// serving a stale one.
//
// The serialisation appends varints for ints, lengths and presence
// (nil and empty slices and maps differ), IEEE bits for floats, the
// dynamic type's name for interfaces (two implementations with equal
// fields do not alias) and map entries sorted by their bytes (map order
// never leaks in). Pointers digest what they point to, never an address.
// Funcs digest by their runtime symbol name, which tells distinct
// functions and closures apart but not two instances of one closure with
// different captures: callers must key such differences by other means
// (the harness keys units by parameter-point label too).
//
// The bytes stream into the hash a chunk at a time, so a large value
// (a city's road network) costs one chunk of buffer, not its whole
// serialisation; only a map's entries, which are sorted before they are
// hashed, are held whole.
func Digest(v any) string {
	d := digester{buf: make([]byte, 0, 1024), h: sha256.New()}
	d.value(reflect.ValueOf(&v).Elem(), 0)
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil))
}

// maxDigestDepth bounds the walk of a cyclic value; keyed values are
// trees.
const maxDigestDepth = 64

// digestChunk is the buffered size past which a digester hashes its
// buffer and empties it, outside map entries.
const digestChunk = 16 << 10

type digester struct {
	buf []byte
	h   hash.Hash
	// inMap counts the map walks in progress, whose entries stay in buf
	// until they are sorted.
	inMap int
}

func (d *digester) uvarint(x uint64) { d.buf = binary.AppendUvarint(d.buf, x) }

func (d *digester) str(s string) {
	d.uvarint(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

// present writes 0 for a nil pointer, slice, map or func and 1 before
// the value otherwise; it reports whether the value follows.
func (d *digester) present(v reflect.Value) bool {
	if v.IsNil() {
		d.buf = append(d.buf, 0)
		return false
	}
	d.buf = append(d.buf, 1)
	return true
}

func (d *digester) value(v reflect.Value, depth int) {
	if depth > maxDigestDepth {
		d.str("!maxdepth")
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.buf = append(d.buf, 1)
		} else {
			d.buf = append(d.buf, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.buf = binary.AppendVarint(d.buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.uvarint(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(real(c)))
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(imag(c)))
	case reflect.String:
		d.str(v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i), depth+1)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i), depth+1)
		}
	case reflect.Slice:
		if d.present(v) {
			d.uvarint(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				d.value(v.Index(i), depth+1)
			}
		}
	case reflect.Pointer:
		if d.present(v) {
			d.value(v.Elem(), depth+1)
		}
	case reflect.Interface:
		if v.IsNil() {
			d.str("")
			return
		}
		d.str(v.Elem().Type().String())
		d.value(v.Elem(), depth+1)
	case reflect.Map:
		if d.present(v) {
			d.mapEntries(v, depth)
		}
	case reflect.Func:
		if d.present(v) {
			name := "unknown"
			if f := runtime.FuncForPC(v.Pointer()); f != nil {
				name = f.Name()
			}
			d.str(name)
		}
	default:
		// Channels and unsafe pointers shape no computation; their
		// type keeps their presence visible.
		d.str(v.Type().String())
	}
	if d.inMap == 0 && len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

// mapEntries writes v's entry count and then its entries, each key's
// bytes followed by its value's, in ascending order of those bytes.
func (d *digester) mapEntries(v reflect.Value, depth int) {
	d.uvarint(uint64(v.Len()))
	d.inMap++
	base := len(d.buf)
	var spans [][2]int
	for it := v.MapRange(); it.Next(); {
		start := len(d.buf)
		d.value(it.Key(), depth+1)
		d.value(it.Value(), depth+1)
		spans = append(spans, [2]int{start - base, len(d.buf) - base})
	}
	entries := append([]byte(nil), d.buf[base:]...)
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(entries[a[0]:a[1]], entries[b[0]:b[1]])
	})
	d.buf = d.buf[:base]
	for _, s := range spans {
		d.buf = append(d.buf, entries[s[0]:s[1]]...)
	}
	d.inMap--
}
