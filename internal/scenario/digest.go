package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
)

// ConfigDigest returns a deterministic content digest of a scenario
// config — the config half of every result-store unit key. It walks the
// value with reflection: every field of every nested struct (exported
// or not) feeds the hash, so a config growing a field, or any field
// changing value, changes the digest and forces recomputation — the
// same never-serve-a-stale-world policy traffic.TraceKey established
// for traffic worlds, generalised to whole scenario configs.
//
// Function-valued fields (Factory, ...) cannot be hashed by
// content; they digest by their runtime symbol name, which
// distinguishes distinct functions and closures but not two instances
// of one closure with different captured variables. Studies therefore
// must (and do) vary the parameter-point label across arms that differ
// only inside a closure: the point label is part of the unit key.
func ConfigDigest(cfg any) string {
	h := sha256.New()
	writeValueDigest(h, reflect.ValueOf(cfg), 0)
	return hex.EncodeToString(h.Sum(nil))
}

// writeValueDigest serialises v canonically into w. The depth guard
// bounds pathological cyclic values; scenario configs are trees.
func writeValueDigest(w io.Writer, v reflect.Value, depth int) {
	if depth > 64 {
		fmt.Fprint(w, "!maxdepth;")
		return
	}
	if !v.IsValid() {
		fmt.Fprint(w, "nil;")
		return
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(w, "%s:nil;", t)
			return
		}
		// The dynamic type is part of the digest: two Selection
		// implementations with identical fields must not alias.
		fmt.Fprintf(w, "%s>", t)
		writeValueDigest(w, v.Elem(), depth+1)
	case reflect.Func:
		if v.IsNil() {
			fmt.Fprint(w, "func:nil;")
			return
		}
		name := "unknown"
		if f := runtime.FuncForPC(v.Pointer()); f != nil {
			name = f.Name()
		}
		fmt.Fprintf(w, "func:%s;", name)
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", t)
		for i := 0; i < t.NumField(); i++ {
			fmt.Fprintf(w, "%s=", t.Field(i).Name)
			writeValueDigest(w, v.Field(i), depth+1)
		}
		fmt.Fprint(w, "}")
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(w, "%s:nil;", t)
			return
		}
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeValueDigest(w, v.Index(i), depth+1)
		}
		fmt.Fprint(w, "]")
	case reflect.Map:
		if v.IsNil() {
			fmt.Fprintf(w, "%s:nil;", t)
			return
		}
		// Map iteration order is randomised; sort keys by their own
		// canonical serialisation for a stable digest.
		keys := v.MapKeys()
		type kv struct {
			repr string
			key  reflect.Value
		}
		sorted := make([]kv, len(keys))
		for i, k := range keys {
			sorted[i] = kv{fmt.Sprintf("%#v", k), k}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].repr < sorted[j].repr })
		fmt.Fprintf(w, "map[%d:", len(sorted))
		for _, e := range sorted {
			writeValueDigest(w, e.key, depth+1)
			fmt.Fprint(w, "=>")
			writeValueDigest(w, v.MapIndex(e.key), depth+1)
		}
		fmt.Fprint(w, "]")
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		// 'b' format is exact: distinct floats never collide and equal
		// floats always agree, unlike shortest-decimal prints.
		fmt.Fprintf(w, "%b;", v.Float())
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		fmt.Fprintf(w, "%b+%bi;", real(c), imag(c))
	default:
		// Channels and unsafe pointers shape no simulation; digest the
		// type so their presence is still visible.
		fmt.Fprintf(w, "%s:opaque;", t)
	}
}
