package packet

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

func tuple() FiveTuple {
	return FiveTuple{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	payload := []byte("hello on-nic world")
	p := Build(tuple(), 128, payload)
	if p.Len() != 128 {
		t.Fatalf("len %d, want 128", p.Len())
	}
	q := &Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple != tuple() {
		t.Fatalf("tuple %v, want %v", q.Tuple, tuple())
	}
	got := string(q.Payload()[:len(payload)])
	if got != string(payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestBuildUDP(t *testing.T) {
	tp := tuple()
	tp.Proto = ProtoUDP
	p := Build(tp, 64, nil)
	q := &Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.Proto != ProtoUDP {
		t.Fatalf("proto %d, want UDP", q.Tuple.Proto)
	}
	if q.PayloadOff != EthHeaderLen+IPv4HeaderLen+UDPHeaderLen {
		t.Fatalf("payload offset %d", q.PayloadOff)
	}
}

func TestBuildChecksumValid(t *testing.T) {
	p := Build(tuple(), 256, nil)
	if !p.VerifyIPChecksum() {
		t.Fatal("fresh packet has invalid IP checksum")
	}
}

func TestRebuildEqualsBuild(t *testing.T) {
	// A frame rebuilt over a used one — longer or shorter, other protocol,
	// rewritten by an NF, payload dirty — is the frame Build makes fresh.
	f := func(src, dst uint32, sp, dp uint16, udp bool, extra, prevExtra uint8) bool {
		tp := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		if udp {
			tp.Proto = ProtoUDP
		}
		p := Build(tuple(), 64+int(prevExtra), []byte("left over from the previous frame"))
		p.SetSrcIP(0xc6336401)
		p.DecTTL()
		p.FlowHash()
		payload := p.Rebuild(tp, 64+int(extra))
		want := Build(tp, 64+int(extra), nil)
		return string(p.Data) == string(want.Data) && p.Tuple == tp && p.PayloadOff == want.PayloadOff &&
			&payload[0] == &p.Data[p.PayloadOff] && len(payload) == len(want.Payload()) &&
			p.FlowHash() == tp.Hash() && p.VerifyIPChecksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildReusesStorage(t *testing.T) {
	p := Build(tuple(), 256, nil)
	before := &p.Data[0]
	p.Rebuild(tuple(), 64)
	p.Rebuild(tuple(), 256)
	if &p.Data[0] != before {
		t.Fatal("Rebuild within capacity reallocated the frame")
	}
}

func TestFlowHashFollowsTuple(t *testing.T) {
	p := Build(tuple(), 64, nil)
	if p.FlowHash() != tuple().Hash() {
		t.Fatal("FlowHash differs from Tuple.Hash")
	}
	p.SetSrcIP(0x0a0000ff)
	if p.FlowHash() != p.Tuple.Hash() {
		t.Fatal("FlowHash stale after SetSrcIP")
	}
	p.SetDstIP(0x0a0000fe)
	if p.FlowHash() != p.Tuple.Hash() {
		t.Fatal("FlowHash stale after SetDstIP")
	}
	copy(p.Data, Build(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, 64, nil).Data)
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if p.FlowHash() != p.Tuple.Hash() {
		t.Fatal("FlowHash stale after Parse")
	}
}

func TestHashIsFNV1a(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		var key [13]byte
		binary.BigEndian.PutUint32(key[0:], src)
		binary.BigEndian.PutUint32(key[4:], dst)
		binary.BigEndian.PutUint16(key[8:], sp)
		binary.BigEndian.PutUint16(key[10:], dp)
		key[12] = proto
		ref := fnv.New64a()
		ref.Write(key[:])
		return FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}.Hash() == ref.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetDstIPFixesChecksum(t *testing.T) {
	p := Build(tuple(), 128, nil)
	p.SetDstIP(0xc0a80101)
	if !p.VerifyIPChecksum() {
		t.Fatal("checksum invalid after SetDstIP")
	}
	q := &Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.DstIP != 0xc0a80101 {
		t.Fatalf("dst %x", q.Tuple.DstIP)
	}
}

func TestSetSrcIPFixesChecksum(t *testing.T) {
	p := Build(tuple(), 128, nil)
	p.SetSrcIP(0xc0a80105)
	if !p.VerifyIPChecksum() {
		t.Fatal("checksum invalid after SetSrcIP")
	}
}

func TestDecTTL(t *testing.T) {
	p := Build(tuple(), 128, nil)
	for i := 0; i < 63; i++ {
		if !p.DecTTL() {
			t.Fatalf("TTL exhausted after %d decrements", i+1)
		}
		if !p.VerifyIPChecksum() {
			t.Fatal("checksum invalid after DecTTL")
		}
	}
	if p.DecTTL() {
		t.Fatal("expected TTL exhaustion at 64th decrement")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 10)},
		{"non-ipv4", func() []byte {
			d := Build(tuple(), 64, nil).Data
			d[12], d[13] = 0x86, 0xdd // IPv6 ethertype
			return d
		}()},
		{"bad-version", func() []byte {
			d := Build(tuple(), 64, nil).Data
			d[EthHeaderLen] = 0x65
			return d
		}()},
		{"bad-proto", func() []byte {
			d := Build(tuple(), 64, nil).Data
			d[EthHeaderLen+9] = 47 // GRE
			return d
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Packet{Data: c.data}
			if err := p.Parse(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestBuildPanicsOnTinySize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(tuple(), 10, nil)
}

func TestHashDistinguishesTuples(t *testing.T) {
	a := tuple()
	b := a
	b.SrcPort++
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on adjacent tuples")
	}
}

func TestHashDeterministic(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		tp := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		return tp.Hash() == tp.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, udp bool, extra uint8) bool {
		tp := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		if udp {
			tp.Proto = ProtoUDP
		}
		size := 64 + int(extra)
		p := Build(tp, size, []byte("x"))
		q := &Packet{Data: p.Data}
		if err := q.Parse(); err != nil {
			return false
		}
		return q.Tuple == tp && q.Len() == size && q.VerifyIPChecksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleString(t *testing.T) {
	s := tuple().String()
	if s != "10.0.0.1:1234->10.0.0.2:80/6" {
		t.Fatalf("String() = %q", s)
	}
}
