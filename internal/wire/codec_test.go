package wire

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/israce"
)

// internKnown is a server-style intern: the names it knows come back as
// its own strings, anything else is copied.
func internKnown(b []byte) string {
	for _, n := range []string{"ACL", "NIDS", "pensando", "slomo", "yala"} {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// TestDecodeInterningMatchesCopying holds the request decoder's two
// ways of making names to one result: the same requests out of every
// valid payload, and an error on exactly the truncated, damaged,
// forged-count and trailing-byte payloads the copying decode refuses.
func TestDecodeInterningMatchesCopying(t *testing.T) {
	mtbr := 0.5
	one := PredictRequest{NF: "NIDS", HW: "pensando", Backend: "slomo", Profile: Profile{Flows: 8000, PktSize: -3, MTBR: &mtbr},
		Competitors: []Competitor{{Name: "ACL"}, {Name: "", Profile: Profile{MTBR: &mtbr}}}}
	batch := BatchRequest{Requests: []PredictRequest{one, {}, {NF: "ACL"}}}

	check := func(typ byte, payload []byte) {
		t.Helper()
		var copied, interned []PredictRequest
		var copyErr, internErr error
		if typ == TypeBatch {
			var c, i BatchRequest
			c, copyErr = DecodeBatchRequest(payload, nil)
			i, internErr = DecodeBatchRequest(payload, internKnown)
			copied, interned = c.Requests, i.Requests
		} else {
			var c, i PredictRequest
			c, copyErr = DecodePredictRequest(payload)
			i, internErr = DecodeRequest(payload, internKnown)
			copied, interned = []PredictRequest{c}, []PredictRequest{i}
		}
		if (copyErr == nil) != (internErr == nil) {
			t.Fatalf("type %d payload %x: interning err %v, copying err %v", typ, payload, internErr, copyErr)
		}
		if copyErr == nil && !reflect.DeepEqual(interned, copied) {
			t.Fatalf("type %d payload %x:\n interning %+v\n copying   %+v", typ, payload, interned, copied)
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

// TestCodecPredictAllocs gates what one predict costs the frame codec
// on both ends, the sequence bench's wire.codec_predict rung times:
// encode and decode a request (one competitor, every MTBR set), then
// encode and decode an answer with two per-resource rows. Decoding
// copies every name; a server's interning decode allocates less.
func TestCodecPredictAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	req := PredictRequest{NF: "FlowStats", Backend: "yala", Profile: Profile{Flows: 64000, PktSize: 512, MTBR: F64(600)},
		Competitors: []Competitor{{Name: "ACL", Profile: Profile{Flows: 8000, PktSize: 256, MTBR: F64(0)}}}}
	resp := PredictResponse{NF: req.NF, Backend: req.Backend, Profile: req.Profile, SoloPPS: 1e6, PredictedPPS: 9e5,
		Bottleneck: "memory", PerResource: []ResourcePPS{{Resource: "memory", PPS: 9e5}, {Resource: "regex", PPS: 1e6}}}
	var err error
	got := testing.AllocsPerRun(1000, func() {
		buf := AppendPredictRequest(GetBuf(), &req)
		if _, derr := DecodePredictRequest(buf); derr != nil {
			err = derr
		}
		buf = AppendPredictResponse(buf[:0], &resp)
		if _, derr := DecodePredictResponse(buf); derr != nil {
			err = derr
		}
		PutBuf(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > 14 {
		t.Errorf("a predict's codec round trip allocates %.0f times, want ≤ 14", got)
	} else {
		t.Logf("%.0f allocations per predict codec round trip", got)
	}
}

// TestDecodeAllocatesWhatArrives: a declared count makes the request
// decoders allocate only for elements the payload's bytes could hold. A
// count that promises more fails before allocating; one the bytes can
// hold costs a bounded multiple of them, as honest elements would.
func TestDecodeAllocatesWhatArrives(t *testing.T) {
	const size = 4096
	header := AppendPredictRequest(nil, &PredictRequest{NF: "ACL"})
	header = header[:len(header)-1] // drop the competitor count
	for _, c := range []struct {
		name   string
		decode func([]byte) error
		prefix []byte
	}{
		{"batch", func(b []byte) error { _, err := DecodeBatchRequest(b, nil); return err }, nil},
		{"competitors", func(b []byte) error { _, err := DecodePredictRequest(b); return err }, header},
	} {
		for _, n := range []uint64{size / 8, size / 2, size} {
			payload := binary.AppendUvarint(append([]byte(nil), c.prefix...), n)
			payload = append(payload, make([]byte, size)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.decode(payload)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*size {
				t.Errorf("%s: a count of %d over %d bytes allocated %d bytes", c.name, n, len(payload), alloc)
			}
		}
	}
}
