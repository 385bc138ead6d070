package api

import (
	"errors"
	"testing"
)

// render is the inverse of ParseRoute: the path a Route names.
func render(rt Route) string {
	p := modelsPrefix + ModelID(rt.NF, rt.HW)
	if rt.Backend != "" {
		p += "/" + rt.Backend
	}
	return p + ":" + rt.Verb
}

// TestParseRoute pins the URL grammar directly (the HTTP round trips in
// serve and gateway only reach it through a mux): which paths are
// model methods, what they name, and which of the two failures — not a
// route at all, or a route with a malformed model ID — each reject is.
func TestParseRoute(t *testing.T) {
	cases := []struct {
		path    string
		want    Route
		noRoute bool // ErrNoRoute
		badID   bool // a model-ID error
	}{
		{path: "/v2/models/FlowStats/yala:predict", want: Route{NF: "FlowStats", Backend: "yala", Verb: "predict"}},
		{path: "/v2/models/FlowStats@pensando:compare", want: Route{NF: "FlowStats", HW: "pensando", Verb: "compare"}},
		{path: "/v2/models/ACL@bluefield2/slomo:admit", want: Route{NF: "ACL", HW: "bluefield2", Backend: "slomo", Verb: "admit"}},
		{path: "/v2/models/ACL:diagnose", want: Route{NF: "ACL", Verb: "diagnose"}},
		// The grammar does not know the verb set; the replica answers an
		// unknown verb with its own 404.
		{path: "/v2/models/ACL/yala:frobnicate", want: Route{NF: "ACL", Backend: "yala", Verb: "frobnicate"}},

		{path: "/v2/models/FlowStats@/yala:predict", badID: true},    // trailing @
		{path: "/v2/models/FlowStats@:compare", badID: true},         // trailing @, model-scoped
		{path: "/v2/models/FlowStats@a@b/yala:predict", badID: true}, // two @
		{path: "/v2/models/@pensando/yala:predict", badID: true},     // empty NF
		{path: "/v2/models//yala:predict", badID: true},              // empty model segment
		// A scoped path reads left to right: the model ID is judged
		// before the missing verb, as the replica always has.
		{path: "/v2/models/@pensando/yala", badID: true},

		{path: "/v2/models/FlowStats/yala", noRoute: true},  // missing verb
		{path: "/v2/models/FlowStats/yala:", noRoute: true}, // empty verb
		{path: "/v2/models/FlowStats/:predict", noRoute: true},
		{path: "/v2/models/FlowStats", noRoute: true},
		{path: "/v2/models/:compare", noRoute: true}, // empty model before the verb
		{path: "/v2/models/", noRoute: true},
		{path: "/v2/models/FlowStats/yala:predict/extra", noRoute: true},
		{path: "/v2/models:batchPredict", noRoute: true}, // a collection method, not a model's
		{path: "/v2/models", noRoute: true},
		{path: "/v2/stats", noRoute: true},
		{path: "/v1/models/FlowStats/yala:predict", noRoute: true},
		{path: "", noRoute: true},
	}
	for _, tc := range cases {
		rt, err := ParseRoute(tc.path)
		switch {
		case tc.noRoute:
			if !errors.Is(err, ErrNoRoute) {
				t.Errorf("ParseRoute(%q) = %+v, %v; want ErrNoRoute", tc.path, rt, err)
			}
		case tc.badID:
			if err == nil || errors.Is(err, ErrNoRoute) {
				t.Errorf("ParseRoute(%q) = %+v, %v; want a model-ID error", tc.path, rt, err)
			}
		default:
			if err != nil || rt != tc.want {
				t.Errorf("ParseRoute(%q) = %+v, %v; want %+v", tc.path, rt, err, tc.want)
			}
			if got := render(rt); got != tc.path {
				t.Errorf("ParseRoute(%q) re-renders to %q", tc.path, got)
			}
		}
	}
}

// TestParseRouteSegments: a replica hands over the segments its mux
// matched, so a segment is taken whole — an escaped slash inside one
// stays part of the name (and fails the catalog check later), where the
// same bytes in a raw path are one segment too many.
func TestParseRouteSegments(t *testing.T) {
	rt, err := ParseRouteSegments("Flow/Stats", "yala:predict")
	if want := (Route{NF: "Flow/Stats", Backend: "yala", Verb: "predict"}); err != nil || rt != want {
		t.Errorf("ParseRouteSegments = %+v, %v; want %+v", rt, err, want)
	}
	if _, err := ParseRoute("/v2/models/Flow/Stats/yala:predict"); !errors.Is(err, ErrNoRoute) {
		t.Errorf("three raw segments: %v, want ErrNoRoute", err)
	}
	for _, segs := range [][]string{nil, {"a", "b:c", "d"}} {
		if _, err := ParseRouteSegments(segs...); !errors.Is(err, ErrNoRoute) {
			t.Errorf("ParseRouteSegments(%q) = %v, want ErrNoRoute", segs, err)
		}
	}
}

// TestParseModelID pins the model-name grammar batch and ingest
// elements carry in their "model" field.
func TestParseModelID(t *testing.T) {
	ok := []struct{ id, nf, hw string }{
		{"FlowStats", "FlowStats", ""},
		{"FlowStats@pensando", "FlowStats", "pensando"},
	}
	for _, tc := range ok {
		nf, hw, err := ParseModelID(tc.id)
		if err != nil || nf != tc.nf || hw != tc.hw {
			t.Errorf("ParseModelID(%q) = %q, %q, %v; want %q, %q", tc.id, nf, hw, err, tc.nf, tc.hw)
		}
		if got := ModelID(nf, hw); got != tc.id {
			t.Errorf("ModelID(%q, %q) = %q, want %q", nf, hw, got, tc.id)
		}
	}
	for _, id := range []string{"", "@", "@pensando", "FlowStats@", "FlowStats@a@b", "FlowStats@@"} {
		if nf, hw, err := ParseModelID(id); err == nil {
			t.Errorf("ParseModelID(%q) = %q, %q; want an error", id, nf, hw)
		}
	}
}

// FuzzParseRoute: the parser reads path bytes straight off a socket at
// both tiers. It must never panic, and an accepted path must be exactly
// the rendering of the Route it parsed to — nothing the gateway hashes
// on or the replica dispatches on is invented or dropped. The seed
// corpus is committed under testdata/fuzz/FuzzParseRoute.
func FuzzParseRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, path string) {
		rt, err := ParseRoute(path)
		if err != nil {
			if rt != (Route{}) {
				t.Fatalf("ParseRoute(%q) failed (%v) yet returned %+v", path, err, rt)
			}
			return
		}
		if rt.NF == "" || rt.Verb == "" {
			t.Fatalf("ParseRoute(%q) accepted an empty NF or verb: %+v", path, rt)
		}
		if got := render(rt); got != path {
			t.Fatalf("ParseRoute(%q) = %+v, which renders to %q", path, rt, got)
		}
	})
}
