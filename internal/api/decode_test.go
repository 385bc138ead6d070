package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// textID decodes itself from a JSON string, as the /v2 model IDs do.
type textID struct{ s string }

func (id *textID) UnmarshalText(b []byte) error { id.s = string(b); return nil }

type decodeItem struct {
	Model   textID            `json:"model"`
	Flows   int               `json:"flows,omitempty"`
	Share   uint8             `json:"share"`
	On      bool              `json:"on"`
	Tags    map[string]string `json:"tags"`
	Opaque  json.RawMessage   `json:"opaque"`
	Skipped string            `json:"-"`
}

type decodeBatch struct {
	Requests []decodeItem `json:"requests"`
	Limit    *int         `json:"limit"`
}

// decodeLike decodes body the way serve's front door does: strict about
// fields, one value.
func decodeLike(body string) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var v decodeBatch
	return dec.Decode(&v)
}

// TestDecodeErrorMessage pins the client-facing text of every kind of
// decode failure: the JSON path, then the kinds found and expected, with
// no Go type or field name in it.
func TestDecodeErrorMessage(t *testing.T) {
	cases := []struct{ body, want string }{
		{`{"requests":[{"model":7}]}`, "requests[0].model: got number, want string"},
		{`{"requests":[{"model":"a"},{"model":[1,2]}]}`, "requests[1].model: got array, want string"},
		{`{"requests":[{"model":"a","flows":"many"}]}`, "requests[0].flows: got string, want number"},
		{`{"requests":[{"on":1}]}`, "requests[0].on: got number, want boolean"},
		{`{"requests":[{"share":300}]}`, "requests[0].share: number 300 is out of range"},
		{`{"requests":[{"tags":{"a":1}}]}`, "requests[0].tags.a: got number, want string"},
		{`{"requests":7}`, "requests: got number, want array"},
		{`{"limit":true}`, "limit: got boolean, want number"},
		{`7`, "got number, want object"},
		{`{"requests":[{"model":"a","mdl":"b"}]}`, "requests[0].mdl: unknown field"},
		{`{"requests":[{"tags":{"mdl":"x"},"opaque":{"mdl":1}},{"mdl":1}]}`, "requests[1].mdl: unknown field"},
		{`{"requests":[{"Model":"a","Skipped":"x"}]}`, "requests[0].Skipped: unknown field"},
		{`{"extra":1}`, "extra: unknown field"},
		{`{"requests":[{"model":"A"`, "requests[0]: invalid JSON: unexpected end of JSON input"},
		{`{"requests":[{"model":"A",}]}`, "requests[0]: invalid JSON: invalid character '}' looking for beginning of object key string"},
		{`{"requests":[{"model" "A"}]}`, "requests[0].model: invalid JSON: invalid character '\"' after object key"},
	}
	for _, tc := range cases {
		err := decodeLike(tc.body)
		if err == nil {
			t.Fatalf("%s decoded", tc.body)
		}
		got := DecodeErrorMessage([]byte(tc.body), &decodeBatch{}, err)
		if want := "decoding request body: " + tc.want; got != want {
			t.Errorf("%s\n got  %q\n want %q", tc.body, got, want)
		}
		for _, leak := range []string{"Go ", "json:", "decodeBatch", "decodeItem", "textID", "api.", "of type"} {
			if strings.Contains(got, leak) {
				t.Errorf("%s: message %q names %q", tc.body, got, leak)
			}
		}
	}

	// json.Unmarshal, as the gateway decodes, reports truncation as a
	// syntax error rather than io.ErrUnexpectedEOF: the same message.
	body := []byte(`{"requests":[{"model":"A"`)
	var v decodeBatch
	err := json.Unmarshal(body, &v)
	if got, want := DecodeErrorMessage(body, &v, err), "decoding request body: requests[0]: invalid JSON: unexpected end of JSON input"; got != want {
		t.Fatalf("Unmarshal truncation: %q, want %q", got, want)
	}
}
