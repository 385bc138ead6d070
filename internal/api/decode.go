package api

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// DecodeErrorMessage describes why body did not decode into v, in the
// client's terms only: the JSON path of the offending value and what
// was found there against what was expected, e.g.
// "decoding request body: requests[0].model: got number, want string".
// Unknown fields ("requests[0].mdl: unknown field") and malformed or
// truncated JSON ("requests[0]: invalid JSON: …") are placed the same
// way. No Go type or field name of the server appears in it, so the
// message is part of the /v2 contract, not of the implementation.
func DecodeErrorMessage(body []byte, v any, err error) string {
	const prefix = "decoding request body: "
	var te *json.UnmarshalTypeError
	var se *json.SyntaxError
	switch {
	case errors.As(err, &te):
		path := scanJSON(body, nil, func(end int64, _ string) bool { return end < te.Offset })
		got, _, _ := strings.Cut(te.Value, " ")
		if got == "bool" {
			got = "boolean"
		}
		if want := jsonKind(te.Type); got != want {
			return prefix + at(path, fmt.Sprintf("got %s, want %s", got, want))
		}
		return prefix + at(path, te.Value+" is out of range")
	case errors.As(err, &se):
		return prefix + at(scanJSON(body, nil, nil), "invalid JSON: "+se.Error())
	case errors.Is(err, io.ErrUnexpectedEOF):
		return prefix + at(scanJSON(body, nil, nil), "invalid JSON: unexpected end of JSON input")
	}
	if q, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		if name, qerr := strconv.Unquote(q); qerr == nil {
			path := scanJSON(body, reflect.TypeOf(v), func(_ int64, unknown string) bool {
				return unknown != name
			})
			if path == "" {
				path = name
			}
			return prefix + at(path, "unknown field")
		}
	}
	return prefix + "malformed request body"
}

// at prefixes detail with a non-empty path.
func at(path, detail string) string {
	if path == "" {
		return detail
	}
	return path + ": " + detail
}

// scanJSON walks body's tokens in document order, calling visit for
// every value and every object key with the input offset just past its
// first token. When t, the type the body decodes into, is given, unknown
// is set to a key that names no field of the struct expected there. It
// returns the path where visit stopped it, or where the input ended or
// stopped being JSON. The path is spelled out only then, so the walk
// costs one step per token however deep the body nests.
func scanJSON(body []byte, t reflect.Type, visit func(end int64, unknown string) bool) string {
	type frame struct {
		obj, wantKey bool
		key          string
		idx          int
		t            reflect.Type // the container's type; nil when anything goes
	}
	var stack []frame
	path := func() string {
		var b strings.Builder
		for _, f := range stack {
			switch {
			case !f.obj && f.idx >= 0:
				b.WriteByte('[')
				b.WriteString(strconv.Itoa(f.idx))
				b.WriteByte(']')
			case f.obj && !f.wantKey:
				if b.Len() > 0 {
					b.WriteByte('.')
				}
				b.WriteString(f.key)
			}
		}
		return b.String()
	}
	fields := map[reflect.Type][]reflect.StructField{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	next := container(t)
	for {
		tok, err := dec.Token()
		if err != nil {
			return path()
		}
		end := dec.InputOffset()
		var top *frame
		if n := len(stack); n > 0 {
			top = &stack[n-1]
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
			if n := len(stack); n > 0 && stack[n-1].obj {
				stack[n-1].wantKey = true
			}
			continue
		}
		if top != nil && top.obj && top.wantKey {
			top.key, top.wantKey = tok.(string), false
			var known bool
			next, known = field(fields, top.t, top.key)
			unknown := ""
			if !known {
				unknown = top.key
			}
			if visit != nil && !visit(end, unknown) {
				return path()
			}
			continue
		}
		if top != nil && !top.obj {
			top.idx++
			next = nil
			if top.t != nil && (top.t.Kind() == reflect.Slice || top.t.Kind() == reflect.Array) {
				next = container(top.t.Elem())
			}
		}
		if visit != nil && !visit(end, "") {
			return path()
		}
		if d, ok := tok.(json.Delim); ok {
			stack = append(stack, frame{obj: d == '{', wantKey: true, idx: -1, t: next})
		} else if top != nil && top.obj {
			top.wantKey = true
		}
	}
}

var (
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// decodesItself reports whether t (or *t) takes its JSON through its own
// unmarshaler.
func decodesItself(t reflect.Type) bool {
	p := reflect.PointerTo(t)
	return t.Implements(jsonUnmarshaler) || p.Implements(jsonUnmarshaler) ||
		t.Implements(textUnmarshaler) || p.Implements(textUnmarshaler)
}

// container is t with pointers removed, or nil when nothing can be said
// about what t's JSON holds: no type, an interface, or a type that
// decodes itself.
func container(t reflect.Type) reflect.Type {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() == reflect.Interface || decodesItself(t) {
		return nil
	}
	return t
}

// field resolves an object key against the container type t the way
// encoding/json does — tag name or field name, an exact match before a
// case-insensitive one, embedded structs' fields promoted — returning
// the member's container type and whether t has the key at all. Maps
// and unknown containers take any key. fields caches each struct's
// visible fields for the walk.
func field(fields map[reflect.Type][]reflect.StructField, t reflect.Type, key string) (reflect.Type, bool) {
	if t == nil {
		return nil, true
	}
	if t.Kind() == reflect.Map {
		return container(t.Elem()), true
	}
	if t.Kind() != reflect.Struct {
		return nil, true
	}
	fs, ok := fields[t]
	if !ok {
		fs = reflect.VisibleFields(t)
		fields[t] = fs
	}
	var fold reflect.Type
	found := false
	for _, f := range fs {
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if f.Anonymous && ft.Kind() == reflect.Struct && f.Tag.Get("json") == "" {
			continue // its fields are promoted
		}
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if name == key {
			return container(f.Type), true
		}
		if !found && strings.EqualFold(name, key) {
			fold, found = container(f.Type), true
		}
	}
	return fold, found
}

// jsonKind names the JSON kind a Go type decodes from.
func jsonKind(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if p := reflect.PointerTo(t); t.Implements(textUnmarshaler) || p.Implements(textUnmarshaler) {
		return "string"
	}
	switch t.Kind() {
	case reflect.String:
		return "string"
	case reflect.Bool:
		return "boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return "number"
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return "string"
		}
		return "array"
	case reflect.Array:
		return "array"
	case reflect.Struct, reflect.Map:
		return "object"
	}
	return "value"
}
