package wire

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// rebuildSink is a RequestSink that reassembles what it is fed into the
// package's own request types, copying every name as the contract asks.
type rebuildSink struct {
	batched  bool
	requests []PredictRequest
}

func (s *rebuildSink) Batch(n int) { s.batched, s.requests = true, make([]PredictRequest, 0, n) }

func (s *rebuildSink) Request(nf, hw, backend []byte, p Profile, competitors int) {
	r := PredictRequest{NF: string(nf), HW: string(hw), Backend: string(backend), Profile: p}
	if competitors > 0 {
		r.Competitors = make([]Competitor, 0, competitors)
	}
	s.requests = append(s.requests, r)
}

func (s *rebuildSink) Competitor(name []byte, p Profile) {
	r := &s.requests[len(s.requests)-1]
	r.Competitors = append(r.Competitors, Competitor{Name: string(name), Profile: p})
}

// TestDecodeRequestsIntoMatchesStructDecoders holds the decode-into
// entry point to DecodePredictRequest and DecodeBatchRequest: the same
// requests out of every valid payload, and an error on exactly the
// truncated, damaged, forged-count and trailing-byte payloads they
// refuse — two parsers of one layout must not drift.
func TestDecodeRequestsIntoMatchesStructDecoders(t *testing.T) {
	mtbr := 0.5
	one := PredictRequest{NF: "NIDS", HW: "pensando", Backend: "slomo", Profile: Profile{Flows: 8000, PktSize: -3, MTBR: &mtbr},
		Competitors: []Competitor{{Name: "ACL"}, {Name: "", Profile: Profile{MTBR: &mtbr}}}}
	batch := BatchRequest{Requests: []PredictRequest{one, {}, {NF: "ACL"}}}

	check := func(typ byte, payload []byte) {
		t.Helper()
		var want []PredictRequest
		var wantErr error
		if typ == TypeBatch {
			var b BatchRequest
			b, wantErr = DecodeBatchRequest(payload)
			want = b.Requests
		} else {
			var r PredictRequest
			r, wantErr = DecodePredictRequest(payload)
			want = []PredictRequest{r}
		}
		var sink rebuildSink
		err := DecodeRequestsInto(typ, payload, &sink)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("type %d payload %x: decode-into err %v, struct decoder err %v", typ, payload, err, wantErr)
		}
		if err != nil {
			return
		}
		if sink.batched != (typ == TypeBatch) {
			t.Fatalf("type %d: Batch called = %v", typ, sink.batched)
		}
		if len(want) == 0 && len(sink.requests) == 0 {
			return
		}
		if !reflect.DeepEqual(sink.requests, want) {
			t.Fatalf("type %d payload %x:\n decode-into %+v\n struct      %+v", typ, payload, sink.requests, want)
		}
	}
	for typ, valid := range map[byte][]byte{
		TypePredict: AppendPredictRequest(nil, &one),
		TypeBatch:   AppendBatchRequest(nil, &batch),
	} {
		check(typ, valid)
		for i := range valid {
			check(typ, valid[:i])
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xff
			check(typ, mut)
		}
		check(typ, append(append([]byte(nil), valid...), 0xfe))
		check(typ, binary.AppendUvarint(nil, 1<<40))
	}
	check(TypeBatch, AppendBatchRequest(nil, &BatchRequest{}))
}
