package serve

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/pkg/yalaclient"
)

// handshake opens a raw wire connection on network/addr and returns it
// with the HelloAck's offer.
func handshake(t *testing.T, network, addr string) (*wire.Framer, net.Conn, string) {
	t.Helper()
	c, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fr := wire.NewFramer(c)
	if err := fr.WriteFrame(wire.TypeHello, 1, wire.AppendHello(nil, "")); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Type != wire.TypeHelloAck {
		t.Fatalf("hello on %s answered type %d, %v", network, f.Type, err)
	}
	offer, err := wire.DecodeHelloAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return fr, c, offer
}

// predictOn runs one typed predict on an opened connection.
func predictOn(t *testing.T, fr *wire.Framer, id uint64) {
	t.Helper()
	req := wire.PredictRequest{NF: "ACL", Backend: "fake", Competitors: []wire.Competitor{{Name: "NIDS"}}}
	if err := fr.WriteFrame(wire.TypePredict, id, wire.AppendPredictRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Type != wire.TypePredictResp {
		t.Fatalf("predict answered type %d, %v", f.Type, err)
	}
}

func requireLinux(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the same-host socket is Linux-only")
	}
}

// TestWireOffersSameHostSocket: a loopback TCP peer's HelloAck offers an
// abstract socket; a client that ignores the offer still completes
// requests on TCP, the socket serves the same requests, a peer on the
// socket is offered nothing, and the connections count by network.
func TestWireOffersSameHostSocket(t *testing.T) {
	requireLinux(t)
	svc, _, ws := wireTestServer(t, nil)
	fr, _, offer := handshake(t, "tcp", ws.Addr())
	if !strings.HasPrefix(offer, "@yalawire-") {
		t.Fatalf("loopback peer offered %q, want an abstract @yalawire- name", offer)
	}
	predictOn(t, fr, 2) // the offer ignored, TCP keeps serving

	ufr, uc, again := handshake(t, "unix", offer)
	if again != "" {
		t.Fatalf("a peer on the socket was offered %q", again)
	}
	if uc.RemoteAddr().String() != offer {
		t.Fatalf("socket peer reached %q, want %q", uc.RemoteAddr(), offer)
	}
	predictOn(t, ufr, 3)

	var sb strings.Builder
	if err := svc.Obs().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`yala_wire_connections_total{network="tcp"} 1`,
		`yala_wire_connections_total{network="unix"} 1`,
		`yala_requests_total{transport="wire"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if got := svc.WireAddr(); got != ws.Addr() {
		t.Fatalf("wire_addr %q, want the TCP listener %q", got, ws.Addr())
	}
}

// TestWireSDKUpgrades: an SDK client pointed at the TCP address ends up
// on the socket: its one pooled connection is accepted once on each.
func TestWireSDKUpgrades(t *testing.T) {
	requireLinux(t)
	svc, ts, ws := wireTestServer(t, nil)
	wc := yalaclient.New(ts.URL, yalaclient.WithWire(ws.Addr()))
	defer wc.Close()
	for i := 0; i < 5; i++ {
		if _, err := wc.Predict(context.Background(), yalaclient.ModelID{NF: "ACL"}, "fake", yalaclient.PredictParams{}); err != nil {
			t.Fatal(err)
		}
	}
	if !wc.WireActive() {
		t.Fatal("client fell back from the wire transport")
	}
	if tcp, unix := svc.wireConnsTCP.Load(), svc.wireConnsUnix.Load(); tcp != 1 || unix != 1 {
		t.Fatalf("accepted %d TCP and %d Unix connections, want 1 and 1", tcp, unix)
	}
}

// TestWireOfferOnlyToLoopback: the offer decision on synthetic peer
// addresses — only a loopback TCP peer gets the socket's name.
func TestWireOfferOnlyToLoopback(t *testing.T) {
	ws := &WireServer{offer: "@yalawire-0123"}
	for _, c := range []struct {
		remote net.Addr
		want   string
	}{
		{&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}, ws.offer},
		{&net.TCPAddr{IP: net.IPv6loopback, Port: 40000}, ws.offer},
		{&net.TCPAddr{IP: net.IPv4(192, 168, 1, 20), Port: 40000}, ""},
		{&net.TCPAddr{IP: net.ParseIP("fe80::1"), Port: 40000}, ""},
		{&net.UnixAddr{Name: "@", Net: "unix"}, ""},
		{nil, ""},
	} {
		if got := ws.offerTo(c.remote); got != c.want {
			t.Errorf("offerTo(%v) = %q, want %q", c.remote, got, c.want)
		}
	}
	if got := (&WireServer{}).offerTo(&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}); got != "" {
		t.Errorf("a server without a socket offered %q", got)
	}
}

// TestWireLocalOnlyForLoopbackListeners: only a TCP listener bound to a
// loopback or an unspecified address, the ones a loopback peer can
// reach, opens the same-host socket.
func TestWireLocalOnlyForLoopbackListeners(t *testing.T) {
	requireLinux(t)
	for _, c := range []struct {
		addr net.Addr
		want bool
	}{
		{&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 8881}, true},
		{&net.TCPAddr{IP: net.IPv6loopback, Port: 8881}, true},
		{&net.TCPAddr{IP: net.IPv4zero, Port: 8881}, true},
		{&net.TCPAddr{IP: net.IPv6unspecified, Port: 8881}, true},
		{&net.TCPAddr{IP: net.IPv4(10, 0, 0, 5), Port: 8881}, false},
		{&net.TCPAddr{IP: net.ParseIP("2001:db8::5"), Port: 8881}, false},
		{&net.UnixAddr{Name: "@yalawire-x", Net: "unix"}, false},
	} {
		l := listenLocal(addrListener{c.addr})
		if l != nil {
			l.Close()
		}
		if got := l != nil; got != c.want {
			t.Errorf("listener on %v opened a same-host socket: %v, want %v", c.addr, got, c.want)
		}
	}
}

// addrListener is a listener that only reports an address.
type addrListener struct{ addr net.Addr }

func (l addrListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }
func (l addrListener) Close() error              { return nil }
func (l addrListener) Addr() net.Addr            { return l.addr }

// TestWireCloseStopsBothListeners: Close returns with both accept loops
// done and every connection torn down, live ones on either network
// included; neither address answers afterwards.
func TestWireCloseStopsBothListeners(t *testing.T) {
	requireLinux(t)
	svc := NewService(ServiceConfig{Registry: testRegistryConfig(t), Workers: 2})
	t.Cleanup(svc.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := svc.ServeWire(lis, nil)
	_, tc, offer := handshake(t, "tcp", ws.Addr())
	_, uc, _ := handshake(t, "unix", offer)

	closed := make(chan struct{})
	go func() { ws.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, c := range []net.Conn{tc, uc} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s connection still open after Close", c.RemoteAddr().Network())
		}
	}
	for _, a := range []struct{ network, addr string }{{"tcp", ws.Addr()}, {"unix", offer}} {
		if c, err := net.Dial(a.network, a.addr); err == nil {
			c.Close()
			t.Fatalf("%s listener %s still accepts after Close", a.network, a.addr)
		}
	}
	if svc.WireAddr() != "" {
		t.Fatalf("wire_addr %q still advertised after Close", svc.WireAddr())
	}
}
