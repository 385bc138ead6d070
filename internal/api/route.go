package api

import (
	"errors"
	"fmt"
	"strings"
)

// modelsPrefix roots every model-method path.
const modelsPrefix = "/v2/models/"

// ModelID renders a model resource name: "<nf>" on the default
// hardware, "<nf>@<hw>" on a named class.
func ModelID(nf, hw string) string {
	if hw == "" {
		return nf
	}
	return nf + "@" + hw
}

// ParseModelID splits a model resource name "<nf>[@<hw>]".
func ParseModelID(id string) (nf, hw string, err error) {
	var qualified bool
	nf, hw, qualified = strings.Cut(id, "@")
	if nf == "" {
		return "", "", fmt.Errorf("model id %q: want <nf> or <nf>@<hw>", id)
	}
	if strings.Contains(hw, "@") {
		return "", "", fmt.Errorf("model id %q: more than one @", id)
	}
	// A trailing "@" is a malformed qualifier, not a quiet request for
	// the default hardware.
	if qualified && hw == "" {
		return "", "", fmt.Errorf("model id %q: empty hardware qualifier", id)
	}
	return nf, hw, nil
}

// Route is one parsed model-method path: /v2/models/{nf[@hw]}:{verb}
// (Backend empty) or /v2/models/{nf[@hw]}/{backend}:{verb}.
type Route struct {
	NF, HW, Backend, Verb string
}

// ErrNoRoute reports a path that has neither model-method shape; any
// other ParseRoute error is the path's malformed model ID.
var ErrNoRoute = errors.New("not a /v2 model-method path")

// ParseRoute parses a model-method path. It validates the grammar only
// — whether the NF, hardware class, backend and verb exist is the
// serving replica's business.
func ParseRoute(path string) (Route, error) {
	rest, ok := strings.CutPrefix(path, modelsPrefix)
	if !ok {
		return Route{}, ErrNoRoute
	}
	return ParseRouteSegments(strings.Split(rest, "/")...)
}

// ParseRouteSegments is ParseRoute for a caller whose mux has already
// cut (and unescaped) what follows /v2/models/ into its one
// "{model}:{verb}" or two "{model}", "{backend}:{verb}" segments. A path
// reads left to right: of two faults, the leftmost is reported.
func ParseRouteSegments(segs ...string) (rt Route, err error) {
	var ok bool
	switch len(segs) {
	case 1:
		var id string
		if id, rt.Verb, ok = cutVerb(segs[0]); !ok {
			return Route{}, ErrNoRoute
		}
		rt.NF, rt.HW, err = ParseModelID(id)
	case 2:
		if rt.NF, rt.HW, err = ParseModelID(segs[0]); err == nil {
			if rt.Backend, rt.Verb, ok = cutVerb(segs[1]); !ok {
				err = ErrNoRoute
			}
		}
	default:
		err = ErrNoRoute
	}
	if err != nil {
		return Route{}, err
	}
	return rt, nil
}

// cutVerb cuts one "name:verb" path segment.
func cutVerb(seg string) (name, verb string, ok bool) {
	name, verb, ok = strings.Cut(seg, ":")
	return name, verb, ok && name != "" && verb != ""
}
