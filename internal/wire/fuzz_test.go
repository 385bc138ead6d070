package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// frameBytes renders one frame as it travels on the socket.
func frameBytes(typ byte, id uint64, payload []byte) []byte {
	b := []byte{magic0, magic1, Version, typ}
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint64(b, id)
	return append(b, payload...)
}

// FuzzFrame feeds arbitrary bytes through ReadFrame and every frame it
// yields through every typed decoder. Nothing may panic; a read may not
// allocate anywhere near what a header declares when the bytes never
// arrive; and whatever a decoder accepts must decode again, after
// re-encoding, to the same value.
func FuzzFrame(f *testing.F) {
	mtbr := 12.5
	req := PredictRequest{NF: "FlowStats", HW: "pensando", Backend: "yala",
		Profile:     Profile{Flows: 1000, PktSize: 512, MTBR: &mtbr},
		Competitors: []Competitor{{Name: "ACL", Profile: Profile{Flows: 200}}, {Name: "NAT"}}}
	resp := PredictResponse{NF: "ACL", Backend: "slomo", SoloPPS: 1.5e6, PredictedPPS: math.NaN(),
		Bottleneck: "dram", PerResource: []ResourcePPS{{"dram", 7.2e5}}}
	f.Add(frameBytes(TypeHello, 1, AppendHello(nil, "key")))
	f.Add(frameBytes(TypePredict, 2, AppendPredictRequest(nil, &req)))
	f.Add(frameBytes(TypePredictResp, 2, AppendPredictResponse(nil, &resp)))
	f.Add(frameBytes(TypeBatch, 3, AppendBatchRequest(nil, &BatchRequest{Requests: []PredictRequest{req, {}}})))
	f.Add(frameBytes(TypeBatchResp, 3, AppendBatchResponse(nil, &BatchResponse{
		Responses: []PredictResponse{resp, {}}, Errors: []string{"", "bad model"}})))
	f.Add(frameBytes(TypeError, 4, AppendError(nil, &ErrorFrame{Status: 429, Code: "resource_exhausted", RetryAfterSec: 2})))
	f.Add(frameBytes(TypeCall, 5, AppendCall(nil, &Call{Method: "POST", URI: "/v2/models", Body: []byte(`{}`)})))
	f.Add(frameBytes(TypeCallResp, 5, AppendCallResp(nil, &CallResp{Status: 200, Headers: []HeaderKV{{"Content-Type", "application/json"}}})))
	f.Add(append(frameBytes(TypeEcho, 6, []byte("ping")), frameBytes(42, 7, nil)...))
	f.Add(frameBytes(TypeEcho, 8, []byte("short"))[:headerSize+2])
	forged := frameBytes(TypeEcho, 9, []byte("abc"))
	binary.BigEndian.PutUint32(forged[4:8], MaxPayload) // declares 10 MiB, sends 3 bytes
	f.Add(forged)

	f.Fuzz(func(t *testing.T, in []byte) {
		fr := NewFramer(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(in), io.Discard})
		var before, after runtime.MemStats
		for {
			runtime.ReadMemStats(&before)
			fm, err := fr.ReadFrame()
			runtime.ReadMemStats(&after)
			// Whatever the header declares, a reader holds at most about
			// twice the bytes that arrived plus one payloadStep.
			if alloc := after.TotalAlloc - before.TotalAlloc; len(in) < 256<<10 && alloc >= maxKeptBuf {
				t.Fatalf("ReadFrame over %d input bytes allocated %d bytes", len(in), alloc)
			}
			if err != nil {
				return
			}
			checkDecoders(t, fm.Payload)
		}
	})
}

// checkDecoders runs every typed decoder over one payload.
func checkDecoders(t *testing.T, p []byte) {
	roundTrip(t, p, DecodeHello, AppendHello)
	roundTrip(t, p, DecodePredictRequest, func(b []byte, v PredictRequest) []byte { return AppendPredictRequest(b, &v) })
	roundTrip(t, p, DecodePredictResponse, func(b []byte, v PredictResponse) []byte { return AppendPredictResponse(b, &v) })
	roundTrip(t, p, decodeBatchRequest, func(b []byte, v BatchRequest) []byte { return AppendBatchRequest(b, &v) })
	roundTrip(t, p, DecodeBatchResponse, func(b []byte, v BatchResponse) []byte { return AppendBatchResponse(b, &v) })
	roundTrip(t, p, DecodeError, func(b []byte, v ErrorFrame) []byte { return AppendError(b, &v) })
	roundTrip(t, p, DecodeCall, func(b []byte, v Call) []byte { return AppendCall(b, &v) })
	roundTrip(t, p, DecodeCallResp, func(b []byte, v CallResp) []byte { return AppendCallResp(b, &v) })

	// The decode-into entry point accepts exactly what the struct
	// decoders accept, and rebuilds the same requests.
	single, singleErr := DecodePredictRequest(p)
	batch, batchErr := decodeBatchRequest(p)
	for _, c := range []struct {
		typ  byte
		want []PredictRequest
		err  error
	}{{TypePredict, []PredictRequest{single}, singleErr}, {TypeBatch, batch.Requests, batchErr}} {
		var sink rebuildSink
		err := DecodeRequestsInto(c.typ, p, &sink)
		if (err == nil) != (c.err == nil) {
			t.Fatalf("type %d payload %x: decode-into err %v, struct decoder err %v", c.typ, p, err, c.err)
		}
		if err == nil && len(c.want)+len(sink.requests) > 0 && !sameBits(reflect.ValueOf(sink.requests), reflect.ValueOf(c.want)) {
			t.Fatalf("type %d payload %x:\n decode-into %+v\n struct      %+v", c.typ, p, sink.requests, c.want)
		}
	}
}

// roundTrip checks decode ∘ encode = id on whatever dec accepts from p.
func roundTrip[T any](t *testing.T, p []byte, dec func([]byte) (T, error), enc func([]byte, T) []byte) {
	t.Helper()
	v, err := dec(p)
	if err != nil {
		return
	}
	again, err := dec(enc(nil, v))
	if err != nil {
		t.Fatalf("payload %x decoded to %+v, whose encoding does not decode: %v", p, v, err)
	}
	if !sameBits(reflect.ValueOf(v), reflect.ValueOf(again)) {
		t.Fatalf("payload %x: decode(encode(v)) != v:\n   v %+v\nagain %+v", p, v, again)
	}
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern, so
// a NaN that survives a round trip equals itself.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
