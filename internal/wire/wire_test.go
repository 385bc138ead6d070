package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// rwPair is an in-memory bidirectional stream for framer tests.
func rwPair() (io.ReadWriter, io.ReadWriter) {
	c1, c2 := net.Pipe()
	return c1, c2
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := rwPair()
	fa, fb := NewFramer(a), NewFramer(b)
	payload := []byte("hello, wire")
	done := make(chan error, 1)
	go func() { done <- fa.WriteFrame(TypeEcho, 42, payload) }()
	f, err := fb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeEcho || f.ID != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame %+v", f)
	}
}

func TestFrameRejectsBadMagicAndVersion(t *testing.T) {
	mk := func(mut func(h []byte)) error {
		hdr := make([]byte, headerSize)
		hdr[0], hdr[1], hdr[2], hdr[3] = magic0, magic1, Version, TypeEcho
		mut(hdr)
		fr := NewFramer(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(hdr), io.Discard})
		_, err := fr.ReadFrame()
		return err
	}
	if err := mk(func(h []byte) { h[0] = 'X' }); !errors.Is(err, ErrTransport) {
		t.Fatalf("bad magic: %v", err)
	}
	if err := mk(func(h []byte) { h[2] = 99 }); !errors.Is(err, ErrTransport) {
		t.Fatalf("bad version: %v", err)
	}
	if err := mk(func(h []byte) {
		binary.BigEndian.PutUint32(h[4:8], MaxPayload+1)
	}); !errors.Is(err, ErrTransport) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	fr := NewFramer(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})
	if err := fr.WriteFrame(TypeEcho, 1, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestPredictRequestRoundTrip(t *testing.T) {
	mtbr := 12.5
	in := PredictRequest{
		NF:      "FlowStats",
		HW:      "bluefield2",
		Backend: "yala",
		Profile: Profile{Flows: 1000, PktSize: 512, MTBR: &mtbr},
		Competitors: []Competitor{
			{Name: "ACL", Profile: Profile{Flows: 200}},
			{Name: "NAT"},
		},
	}
	buf := AppendPredictRequest(GetBuf(), &in)
	out, err := DecodePredictRequest(buf)
	PutBuf(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}
}

func TestPredictResponseRoundTrip(t *testing.T) {
	in := PredictResponse{
		NF:           "ACL",
		Backend:      "slomo",
		Profile:      Profile{Flows: 5000, PktSize: 1500},
		SoloPPS:      1.5e6,
		PredictedPPS: 7.2e5,
		Bottleneck:   "dram",
		PerResource: []ResourcePPS{
			{Resource: "dram", PPS: 7.2e5},
			{Resource: "llc", PPS: 9e5},
		},
	}
	buf := AppendPredictResponse(GetBuf(), &in)
	out, err := DecodePredictResponse(buf)
	PutBuf(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	req := BatchRequest{Requests: []PredictRequest{
		{NF: "A", Backend: "yala"},
		{NF: "B", Backend: "slomo", Profile: Profile{Flows: 7}},
	}}
	buf := AppendBatchRequest(GetBuf(), &req)
	gotReq, err := DecodeBatchRequest(buf, nil)
	PutBuf(buf)
	if err != nil || !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("batch request round trip: %+v (err %v)", gotReq, err)
	}

	resp := BatchResponse{
		Responses: []PredictResponse{{NF: "A", Backend: "yala", SoloPPS: 1}, {}},
		Errors:    []string{"", "bad model"},
	}
	buf = AppendBatchResponse(GetBuf(), &resp)
	gotResp, err := DecodeBatchResponse(buf)
	PutBuf(buf)
	if err != nil || !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("batch response round trip: %+v (err %v)", gotResp, err)
	}

	// All-clean batches drop the error column entirely.
	clean := BatchResponse{Responses: []PredictResponse{{NF: "A"}}}
	buf = AppendBatchResponse(GetBuf(), &clean)
	gotClean, err := DecodeBatchResponse(buf)
	PutBuf(buf)
	if err != nil || gotClean.Errors != nil {
		t.Fatalf("clean batch grew errors: %+v (err %v)", gotClean, err)
	}
}

func TestErrorAndCallRoundTrip(t *testing.T) {
	e := ErrorFrame{Status: 429, Code: "resource_exhausted", Message: "shed", RequestID: "wire-000001", RetryAfterSec: 2}
	buf := AppendError(GetBuf(), &e)
	gotE, err := DecodeError(buf)
	PutBuf(buf)
	if err != nil || !reflect.DeepEqual(e, gotE) {
		t.Fatalf("error round trip: %+v (err %v)", gotE, err)
	}

	c := Call{Method: "POST", URI: "/v2/models/A/yala:predict", ContentType: "application/json", RequestID: "gw-000001", Body: []byte(`{}`)}
	buf = AppendCall(GetBuf(), &c)
	gotC, err := DecodeCall(buf)
	PutBuf(buf)
	if err != nil || !reflect.DeepEqual(c, gotC) {
		t.Fatalf("call round trip: %+v (err %v)", gotC, err)
	}

	cr := CallResp{Status: 200, Headers: []HeaderKV{{"Content-Type", "application/json"}}, Body: []byte(`{"ok":true}`)}
	buf = AppendCallResp(GetBuf(), &cr)
	gotCR, err := DecodeCallResp(buf)
	PutBuf(buf)
	if err != nil || !reflect.DeepEqual(cr, gotCR) {
		t.Fatalf("callresp round trip: %+v (err %v)", gotCR, err)
	}
}

// TestDecodeMalformedNeverPanics feeds truncations and mutations of a
// valid payload through every decoder: errors are fine, panics are
// not, and a forged element count must not cause a huge allocation.
func TestDecodeMalformedNeverPanics(t *testing.T) {
	mtbr := 1.0
	valid := AppendPredictRequest(nil, &PredictRequest{
		NF: "FlowStats", Backend: "yala",
		Profile:     Profile{Flows: 10, MTBR: &mtbr},
		Competitors: []Competitor{{Name: "ACL"}},
	})
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodePredictRequest(b); return err },
		func(b []byte) error { _, err := DecodePredictResponse(b); return err },
		func(b []byte) error { _, err := DecodeBatchRequest(b, nil); return err },
		func(b []byte) error { _, err := DecodeBatchResponse(b); return err },
		func(b []byte) error { _, err := DecodeError(b); return err },
		func(b []byte) error { _, err := DecodeCall(b); return err },
		func(b []byte) error { _, err := DecodeCallResp(b); return err },
	}
	for _, dec := range decoders {
		for i := 0; i < len(valid); i++ {
			dec(valid[:i]) // truncations
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xff
			dec(mut) // bit damage
		}
		// Forged huge count: uvarint(1<<40) followed by nothing.
		dec(binary.AppendUvarint(nil, 1<<40))
	}
	// Trailing garbage is an error, not silently ignored.
	if _, err := DecodePredictRequest(append(append([]byte(nil), valid...), 0xfe)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// echoServer is a minimal wire listener: handshake then echo.
func echoServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fr := NewFramer(c)
				f, err := fr.ReadFrame()
				if err != nil || f.Type != TypeHello {
					return
				}
				if fr.WriteFrame(TypeHelloAck, f.ID, nil) != nil {
					return
				}
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						return
					}
					if fr.WriteFrame(TypeEchoAck, f.ID, f.Payload) != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

func TestPoolRoundTrip(t *testing.T) {
	addr := echoServer(t)
	p := NewPool(addr, "key", 2)
	defer p.Close()
	for i := 0; i < 10; i++ {
		var got []byte
		err := p.Do(context.Background(), TypeEcho, []byte("ping"), func(f Frame) error {
			if f.Type != TypeEchoAck {
				t.Fatalf("frame type %d", f.Type)
			}
			got = append([]byte(nil), f.Payload...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "ping" {
			t.Fatalf("echo %q", got)
		}
	}
}

func TestPoolTransportErrorTagged(t *testing.T) {
	// Nothing listens here: Do must fail with ErrTransport quickly.
	p := NewPool("127.0.0.1:1", "", 1)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := p.Do(ctx, TypeEcho, nil, func(Frame) error { return nil })
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
}
